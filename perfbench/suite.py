"""Workload definitions shared by the orchestrator and the pair worker.

Every workload is a KG-W vs PCM-Only pair run through
``hybridgc.run_baseline_pair``. A workload may pool several inputs
(``inputs`` > 1): input ``k`` of seed ``s`` uses the master seed
``derive_seed(s, k)`` and is one pair process. The simulated metrics of
a run are pooled over its inputs; see README.md for why each workload
exists and which layers it stresses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

VARIANT = "KG-W"
BASELINE = "PCM-Only"
SIDES = (BASELINE, VARIANT)

DEFAULT_SEED = 42
HELD_OUT_SEED = 20180800

MIB = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    archetype: str
    op_count: int  # ops per instance and input
    instances: int = 1
    inputs: int = 1  # distinct inputs pooled per run
    replay: bool = False  # record with ``hybridgc gen-trace`` and replay via trace_path
    nursery: int | None = None  # None keeps the harness/archetype default
    cache: int | None = None
    budget: int | None = None
    quantum: int | None = None  # round-robin ops per turn

    def ops(self, scale: float) -> int:
        return max(1, int(self.op_count * scale))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "churn-replay-4x",
            "nursery-churn",
            op_count=100_000,
            instances=4,
            replay=True,
            nursery=4 * MIB,
            budget=64 * MIB,
        ),
        Workload(
            "mature-smallcache",
            "mature-mutation",
            op_count=120_000,
            nursery=1 * MIB,
            cache=2 * MIB,
        ),
        Workload(
            "large-graph",
            "large-object-graph",
            op_count=16_000,
            inputs=4,
            quantum=1_000,
        ),
    )
}


def trace_path(workload: Workload, seed: int, index: int) -> str:
    """Checkout-relative path of a replay workload's recorded trace."""
    return os.path.join("perfbench", "out", f"{workload.archetype}-s{seed}-i{index}.trace")
