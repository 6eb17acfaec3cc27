"""Collector variants and their tunable knobs."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError
from .units import KIB, MIB


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

    @classmethod
    def from_name(cls, name: str) -> "Collector":
        # accept the unicode minus some docs use for the ablations
        cleaned = name.strip().replace("−", "-")
        for member in cls:
            if member.value.lower() == cleaned.lower():
                return member
        raise ConfigError(f"unknown collector {name!r}; choose from {[m.value for m in cls]}")

    @property
    def is_write_sampling(self) -> bool:
        """True for the variants with an observation space."""
        return self in (Collector.KG_W, Collector.KG_W_NO_LOO, Collector.KG_W_NO_MDO)

    @property
    def nursery_multiplier(self) -> int:
        """The B variants trade a bigger nursery for the observer space."""
        return 3 if self in (Collector.KG_B, Collector.KG_B_LOO) else 1

    @property
    def default_loo(self) -> bool:
        return self in (Collector.KG_N_LOO, Collector.KG_B_LOO, Collector.KG_W, Collector.KG_W_NO_MDO)

    @property
    def default_mdo(self) -> bool:
        return self in (Collector.KG_W, Collector.KG_W_NO_LOO)


@dataclass
class CollectorConfig:
    """Per-instance collector parameters.

    ``loo`` and ``mdo`` default from the variant; explicit values are
    validated against what the variant permits (the ablation variants
    exist precisely to pin these off).
    """

    variant: Collector
    nursery_size: int = 4 * MIB  # base size, before the B-variant multiplier
    observer_multiplier: float = 2.0
    heap_budget: int = 64 * MIB
    loo: bool | None = None
    mdo: bool | None = None
    large_threshold: int = 8 * KIB
    loo_nursery_fraction: float = 1.0 / 8.0
    large_relocation_threshold: int = 4

    def __post_init__(self) -> None:
        if isinstance(self.variant, str):
            self.variant = Collector.from_name(self.variant)
        if self.loo is None:
            self.loo = self.variant.default_loo
        if self.mdo is None:
            self.mdo = self.variant.default_mdo
        if self.nursery_size <= 0:
            raise ConfigError("nursery size must be positive")
        if self.heap_budget < self.effective_nursery_size:
            raise ConfigError("heap budget smaller than the nursery makes no progress")
        if self.observer_multiplier <= 0:
            raise ConfigError("observer multiplier must be positive")
        if self.variant.is_write_sampling and self.observer_multiplier < 1.0:
            # a full nursery of survivors must fit after an evacuation
            raise ConfigError("the observation space cannot be smaller than the nursery")
        if self.large_threshold <= 0 or self.large_relocation_threshold < 0:
            raise ConfigError("large-object thresholds out of range")
        if not 0 < self.loo_nursery_fraction <= 1:
            raise ConfigError("nursery admission fraction must be in (0, 1]")
        if self.loo and self.variant is Collector.KG_W_NO_LOO:
            raise ConfigError(f"{self.variant.value} removes the large-object optimization")
        if self.mdo and not self.variant.is_write_sampling:
            raise ConfigError(f"{self.variant.value} has no DRAM metadata space")
        if self.mdo and self.variant is Collector.KG_W_NO_MDO:
            raise ConfigError(f"{self.variant.value} removes the metadata optimization")

    @property
    def effective_nursery_size(self) -> int:
        return self.nursery_size * self.variant.nursery_multiplier

    @property
    def observer_size(self) -> int:
        if not self.variant.is_write_sampling:
            return 0
        return int(self.effective_nursery_size * self.observer_multiplier)
