"""Trace-driven simulator for generational GC on hybrid DRAM/PCM memory."""

from .address_space import HeapLayout, MemoryKind
from .collectors import CollectionStats, GcEngine, build_instance
from .config import Collector, ExperimentConfig
from .errors import (
    ConfigError,
    HeapExhausted,
    InvariantError,
    SimulatorError,
    TraceError,
)
from .harness import (
    PairResult,
    Report,
    config_for_archetype,
    run_baseline_pair,
    run_experiment,
    sweep,
)
from .heap import HeapInstance, ObjectRecord, align8, make_space_map
from .memory import (
    UNBOUNDED_YEARS,
    CacheModel,
    LifetimeModel,
    MemorySystem,
    TrafficCounters,
    lifetime_years,
)
from .workloads import (
    ARCHETYPES,
    WorkloadSpec,
    default_spec,
    drive,
    generate,
    load_trace,
    parse_trace,
    serialize_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ARCHETYPES",
    "CacheModel",
    "CollectionStats",
    "Collector",
    "ConfigError",
    "ExperimentConfig",
    "GcEngine",
    "HeapExhausted",
    "HeapInstance",
    "HeapLayout",
    "InvariantError",
    "LifetimeModel",
    "MemoryKind",
    "MemorySystem",
    "ObjectRecord",
    "PairResult",
    "Report",
    "SimulatorError",
    "TraceError",
    "TrafficCounters",
    "UNBOUNDED_YEARS",
    "WorkloadSpec",
    "align8",
    "build_instance",
    "config_for_archetype",
    "default_spec",
    "drive",
    "generate",
    "lifetime_years",
    "load_trace",
    "make_space_map",
    "parse_trace",
    "run_baseline_pair",
    "run_experiment",
    "serialize_trace",
    "sweep",
]
