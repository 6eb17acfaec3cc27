"""Collector variants and the one configuration object of a run.

``ExperimentConfig`` holds every knob of a run: the collector variant,
the op source, the heap, cache and clock geometry and the lifetime
model. The heap and the engine read it directly; ``build_system`` copies
the cache geometry and the clock's costs into the run's ``MemorySystem``,
which keeps the simulated time. The config is frozen and
``__post_init__`` rejects every bad value when it is built, so a bad
point of a sweep fails before any point runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

from .address_space import HeapLayout
from .errors import ConfigError
from .memory import LifetimeModel, MemorySystem, cache_set_count
from .units import KIB, MIB
from .workloads import WorkloadSpec, check_field_types


class Collector(Enum):
    """The eight collector variants the simulator models.

    PCM_ONLY keeps the whole heap in PCM and is the degradation
    baseline. The N/B variants keep only boot and nursery in DRAM; the W
    variants add an observation space that samples object write behavior
    before deciding DRAM or PCM residency. +LOO/-LOO and -MDO toggle the
    large-object and mark-metadata optimizations relative to the base.
    """

    PCM_ONLY = "PCM-Only"
    KG_N = "KG-N"
    KG_B = "KG-B"
    KG_N_LOO = "KG-N+LOO"
    KG_B_LOO = "KG-B+LOO"
    KG_W = "KG-W"
    KG_W_NO_LOO = "KG-W-LOO"
    KG_W_NO_MDO = "KG-W-MDO"

    def __init__(self, value: str) -> None:
        # Plain attributes, not properties: the heap reads ``loo`` and the
        # nursery size on each large allocation and the engine reads ``mdo``
        # on each mark.
        self.is_write_sampling = value in ("KG-W", "KG-W-LOO", "KG-W-MDO")  # has an observation space
        self.nursery_multiplier = 3 if value in ("KG-B", "KG-B+LOO") else 1  # B: a bigger nursery, no observer
        self.loo = value in ("KG-N+LOO", "KG-B+LOO", "KG-W", "KG-W-MDO")  # large objects may use the nursery
        self.mdo = value in ("KG-W", "KG-W-LOO")  # PCM residents' marks go to DRAM

    @classmethod
    def from_name(cls, name: str) -> "Collector":
        # accept the unicode minus some docs use for the ablations
        cleaned = name.strip().replace("−", "-")
        for member in cls:
            if member.value.lower() == cleaned.lower():
                return member
        raise ConfigError(f"unknown collector {name!r}; choose from {[m.value for m in cls]}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every parameter of one run; ``variant`` is derived from ``collector``.

    A changed point is a new config, built with ``dataclasses.replace``.
    The clock and routing fields default to ``MemorySystem``'s, and the
    lifetime fields to ``LifetimeModel``'s.
    """

    collector: str
    seed: int
    instances: int = 1
    workload: WorkloadSpec | None = None  # replicated per instance with derived seeds
    trace_path: str | None = None
    nursery_size: int = 4 * MIB  # base size, before the B-variant multiplier
    observer_multiplier: float = 2.0
    heap_budget: int = 64 * MIB
    heap_size: int = 2048 * MIB
    chunk_size: int = 4 * MIB
    cache_capacity: int = 20 * MIB
    cache_assoc: int = 16
    cache_line: int = 64
    quantum: int = 10_000
    warmup_fraction: float = 0.10
    zeroing: bool = True
    gc_traffic_through_cache: bool = MemorySystem.gc_traffic_through_cache
    include_collector_time: bool = MemorySystem.include_collector_time
    large_threshold: int = 8 * KIB
    loo_nursery_fraction: float = 1.0 / 8.0
    large_relocation_threshold: int = 4
    boot_size: int = 4 * MIB
    boot_object_size: int = 256
    op_cost_ns: float = MemorySystem.op_cost_ns
    byte_cost_ns: float = MemorySystem.byte_cost_ns
    lifetime_capacity_bytes: int = LifetimeModel.capacity_bytes
    lifetime_endurance: float = LifetimeModel.endurance_writes
    lifetime_efficiency: float = LifetimeModel.wear_efficiency

    def __post_init__(self) -> None:
        check_field_types(self)  # first: every check below reads a field of its declared type
        # not a field, so to_dict() and replace() see only ``collector``
        object.__setattr__(self, "variant", Collector.from_name(self.collector))
        if self.op_cost_ns < 0 or self.byte_cost_ns < 0:
            raise ConfigError("op and byte costs must be finite and non-negative")
        if self.observer_multiplier <= 0:
            raise ConfigError("observer multiplier must be finite and positive")
        if self.instances < 1:
            raise ConfigError("need at least one instance")
        if (self.workload is None) == (self.trace_path is None):
            raise ConfigError("exactly one of workload or trace_path must be given")
        if self.quantum <= 0:
            raise ConfigError("quantum must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError("warm-up fraction must be in [0, 1)")
        if self.nursery_size <= 0:
            raise ConfigError("nursery size must be positive")
        if self.heap_budget < self.effective_nursery_size:
            raise ConfigError("heap budget smaller than the nursery makes no progress")
        if self.variant.is_write_sampling and self.observer_multiplier < 1.0:
            # a full nursery of survivors must fit after an evacuation
            raise ConfigError("the observation space cannot be smaller than the nursery")
        if self.large_threshold <= 0 or self.large_relocation_threshold < 0:
            raise ConfigError("large-object thresholds out of range")
        if not 0 < self.loo_nursery_fraction <= 1:
            raise ConfigError("nursery admission fraction must be in (0, 1]")
        cache_set_count(self.cache_capacity, self.cache_assoc, self.cache_line)
        HeapLayout(self.heap_size, self.chunk_size)
        if self.boot_size < 0:
            raise ConfigError("boot size must not be negative")
        # Boot sits at the bottom of the half that holds the nursery (both
        # are DRAM, or both PCM), the young region at its top.
        if self.boot_size + self.effective_nursery_size + self.observer_size > self.heap_size // 2:
            raise ConfigError("boot, nursery and observer do not fit in their memory half")
        self.lifetime_model()  # validate before the run, not at report time

    @property
    def effective_nursery_size(self) -> int:
        return self.nursery_size * self.variant.nursery_multiplier

    @property
    def observer_size(self) -> int:
        if not self.variant.is_write_sampling:
            return 0
        return int(self.effective_nursery_size * self.observer_multiplier)

    def lifetime_model(self) -> LifetimeModel:
        return LifetimeModel(
            capacity_bytes=self.lifetime_capacity_bytes,
            endurance_writes=self.lifetime_endurance,
            wear_efficiency=self.lifetime_efficiency,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)  # recurses into the workload spec
