"""Layer tracing from outside the simulator.

``Tracer.install`` replaces the public functions at each layer boundary
with timed wrappers, patching every name where it is looked up (the
harness imports ``generate``, ``drive``, ``load_trace``,
``build_instance`` and ``build_system`` into its own namespace; methods
are looked up on their classes). Nothing under ``src/`` changes.

Fine-grained boundaries (each cache access, heap op and generator step)
record counts and summed host time only. Coarse boundaries (each pair
side, drive slice, collection, drain, build and parse) also record a
span with name, side, start, end and parent; spans stay in memory until
``write_spans``. A boundary's self time is its time minus the time of the
traced boundaries nested directly inside it. Statistics are kept per
pair side, keyed by the collector of the running experiment.
"""

from __future__ import annotations

import json
import time

# The per-layer metrics reported for each side, in report order.
LAYER_METRICS = (
    "workloads.generate.ops",
    "workloads.generate.s",
    "workloads.parse.ops",
    "workloads.parse.s",
    "workloads.drive.slices",
    "workloads.drive.self_s",
    "heap.alloc.calls",
    "heap.alloc.self_s",
    "heap.write.calls",
    "heap.write.self_s",
    "heap.read.calls",
    "heap.read.self_s",
    "heap.ref.calls",
    "heap.ref.self_s",
    "heap.root.calls",
    "heap.root.self_s",
    "heap.freelist_alloc.calls",
    "heap.freelist_alloc.s",
    "heap.sweep.s",
    "heap.check_placement.s",
    "memory.access.calls",
    "memory.access.lines",
    "memory.access.s",
    "memory.fills",
    "memory.writebacks",
    "memory.hit_ratio",
    "memory.drain.s",
    "memory.drain.lines",
    "collectors.young.calls",
    "collectors.young.s",
    "collectors.young.self_s",
    "collectors.observer.count",
    "collectors.major.calls",
    "collectors.major.s",
    "collectors.major.self_s",
    "collectors.copied_bytes",
    "collectors.mark_writes",
    "collectors.mark_writes_pcm",
    "collectors.large_relocations",
    "address_space.reserve.calls",
    "address_space.release.calls",
    "harness.build.s",
    "harness.self_s",
    "harness.report.s",
)


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def _access_lines(args: tuple, _result) -> int:
    system, _inst, addr, length = args[:4]
    if length <= 0:
        return 0
    line = system.cache.line_size
    return (addr + length - 1) // line - addr // line + 1


class _Stepper:
    """Iterator whose every step goes through a timed boundary."""

    __slots__ = ("_step",)

    def __init__(self, step) -> None:
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step()


class Tracer:
    def __init__(self) -> None:
        self.side = "-"
        # (side, boundary) -> [calls, seconds, self seconds]
        self.totals: dict[tuple[str, str], list] = {}
        # (side, boundary.tally) -> summed tally
        self.tallies: dict[tuple[str, str], int] = {}
        self.spans: list[dict] = []
        self.systems: dict[str, object] = {}
        self.heaps: dict[str, list] = {}
        self._stack: list[list[float]] = []  # child time of each open boundary
        self._open: list[int] = []  # indices of open spans
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- wrappers --

    def timed(self, boundary: str, fn, *, span: bool = False, tally=None):
        """Wrap ``fn``; ``tally`` is ``(suffix, f(args, result) -> int)``."""
        totals = self.totals
        stack = self._stack
        clock = time.perf_counter
        tally_name, tally_fn = tally if tally else (None, None)

        def wrapper(*args, **kwargs):
            side = self.side
            child = [0.0]
            stack.append(child)
            if span:
                index = self._open_span(boundary, side)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec = totals.get((side, boundary))
                if rec is None:
                    rec = totals[(side, boundary)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child[0]
                if span:
                    self._close_span(index)
            if tally_fn is not None:
                key = (side, f"{boundary}.{tally_name}")
                self.tallies[key] = self.tallies.get(key, 0) + tally_fn(args, result)
            return result

        return wrapper

    def _open_span(self, name: str, side: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(
            {"name": name, "side": side, "start": time.perf_counter() - self._t0, "end": None, "parent": parent}
        )
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close_span(self, index: int) -> None:
        self._open.pop()
        self.spans[index]["end"] = time.perf_counter() - self._t0

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- installation --

    def install(self) -> None:
        from hybridgc import harness
        from hybridgc.address_space import FreeList
        from hybridgc.collectors import GcEngine
        from hybridgc.heap import FreeListSpace, HeapInstance
        from hybridgc.memory import MemorySystem

        run = self.timed("harness.run", harness.run_experiment, span=True)

        def run_experiment(config):
            self.side = config.collector
            return run(config)

        build = self.timed("harness.build", harness.build_instance, span=True)

        def build_instance(*args, **kwargs):
            heap = build(*args, **kwargs)
            self.heaps.setdefault(self.side, []).append(heap)
            return heap

        build_system = harness.build_system

        def capture_system(config):
            system = build_system(config)
            self.systems[self.side] = system
            return system

        generate = harness.generate

        def timed_generate(spec):
            step = self.timed("workloads.generate", iter(generate(spec)).__next__, tally=("ops", lambda a, r: 1))
            return _Stepper(step)

        to_json = self.timed("harness.report", harness.Report.to_json)

        def report_to_json(report):
            self.side = report.collector
            return to_json(report)

        self._patch(harness, "run_experiment", run_experiment)
        self._patch(harness, "build_instance", build_instance)
        self._patch(harness, "build_system", capture_system)
        self._patch(harness, "generate", timed_generate)
        self._patch(
            harness,
            "load_trace",
            self.timed("workloads.parse", harness.load_trace, span=True, tally=("ops", lambda a, r: len(r))),
        )
        self._patch(harness, "drive", self.timed("workloads.drive", harness.drive, span=True))
        self._patch(harness.Report, "to_json", report_to_json)
        for method, boundary in (
            ("alloc_object", "heap.alloc"),
            ("write_data", "heap.write"),
            ("read_data", "heap.read"),
            ("write_ref", "heap.ref"),
            ("set_root", "heap.root"),
            ("check_placement", "heap.check_placement"),
        ):
            self._patch(HeapInstance, method, self.timed(boundary, getattr(HeapInstance, method)))
        self._patch(FreeListSpace, "alloc", self.timed("heap.freelist_alloc", FreeListSpace.alloc))
        self._patch(FreeListSpace, "sweep", self.timed("heap.sweep", FreeListSpace.sweep))
        self._patch(
            MemorySystem, "access", self.timed("memory.access", MemorySystem.access, tally=("lines", _access_lines))
        )
        self._patch(
            MemorySystem,
            "drain",
            self.timed("memory.drain", MemorySystem.drain, span=True, tally=("lines", lambda a, r: r)),
        )
        self._patch(GcEngine, "on_nursery_full", self.timed("collectors.young", GcEngine.on_nursery_full, span=True))
        self._patch(GcEngine, "collect_major", self.timed("collectors.major", GcEngine.collect_major, span=True))
        self._patch(FreeList, "reserve", self.timed("address_space.reserve", FreeList.reserve))
        self._patch(FreeList, "release", self.timed("address_space.release", FreeList.release))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results --

    def side_seconds(self, side: str) -> float:
        """Host seconds of the side's whole ``run_experiment`` call."""
        return self.totals.get((side, "harness.run"), [0, 0.0, 0.0])[1]

    def metrics(self, side: str) -> dict[str, float]:
        values: dict[str, float] = {}
        for (s, boundary), (calls, seconds, self_seconds) in self.totals.items():
            if s == side:
                values[f"{boundary}.calls"] = calls
                values[f"{boundary}.s"] = seconds
                values[f"{boundary}.self_s"] = self_seconds
        for (s, name), n in self.tallies.items():
            if s == side:
                values[name] = n
        values["workloads.drive.slices"] = values.get("workloads.drive.calls", 0)
        values["harness.self_s"] = values.get("harness.run.self_s", 0.0)
        counters = self.systems[side].counters
        values["memory.fills"] = counters.fills
        values["memory.writebacks"] = counters.writebacks
        lines = values.get("memory.access.lines", 0)
        values["memory.hit_ratio"] = 1.0 - counters.fills / lines if lines else 0.0
        stats = [st for heap in self.heaps[side] for st in heap.gc.collections]
        values["collectors.observer.count"] = sum(1 for st in stats if st.kind == "observer")
        values["collectors.copied_bytes"] = sum(st.bytes_copied_total for st in stats)
        values["collectors.mark_writes"] = sum(st.mark_writes for st in stats)
        values["collectors.mark_writes_pcm"] = sum(st.mark_writes_pcm for st in stats)
        values["collectors.large_relocations"] = sum(st.large_relocated for st in stats)
        return {name: values.get(name, 0) for name in LAYER_METRICS}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "host seconds since tracer start", "spans": self.spans}, fh, indent=1)
            fh.write("\n")
