import math
from dataclasses import FrozenInstanceError

import pytest

from hybridgc.config import Collector, ExperimentConfig
from hybridgc.errors import ConfigError
from hybridgc.harness import build_system, config_for_archetype
from hybridgc.memory import MemorySystem
from hybridgc.workloads import ARCHETYPES

from support import MIB, ONE_OP


def default_config(collector: str, **overrides) -> ExperimentConfig:
    return ExperimentConfig(collector=collector, seed=0, workload=ONE_OP, **overrides)


def test_all_variant_names_round_trip():
    for member in Collector:
        assert Collector.from_name(member.value) is member
        assert Collector.from_name(member.value.lower()) is member


def test_unicode_minus_accepted():
    assert Collector.from_name("KG-W−LOO") is Collector.KG_W_NO_LOO
    assert Collector.from_name("KG-W−MDO") is Collector.KG_W_NO_MDO


def test_unknown_name_rejected():
    with pytest.raises(ConfigError):
        Collector.from_name("KG-X")


def test_variant_properties():
    assert not Collector.PCM_ONLY.is_write_sampling
    assert not Collector.KG_N.is_write_sampling
    assert Collector.KG_W.is_write_sampling
    assert Collector.KG_W_NO_LOO.is_write_sampling
    assert Collector.KG_W_NO_MDO.is_write_sampling
    assert Collector.KG_B.nursery_multiplier == 3
    assert Collector.KG_B_LOO.nursery_multiplier == 3
    assert Collector.KG_N.nursery_multiplier == 1
    assert Collector.KG_W.nursery_multiplier == 1
    # the four flags are plain attributes of each member, not properties
    for member in Collector:
        assert {"is_write_sampling", "nursery_multiplier", "loo", "mdo"} <= vars(member).keys()


def test_defaults_per_variant():
    expected = {
        Collector.PCM_ONLY: (False, False),
        Collector.KG_N: (False, False),
        Collector.KG_B: (False, False),
        Collector.KG_N_LOO: (True, False),
        Collector.KG_B_LOO: (True, False),
        Collector.KG_W: (True, True),
        Collector.KG_W_NO_LOO: (False, True),
        Collector.KG_W_NO_MDO: (True, False),
    }
    for variant, (loo, mdo) in expected.items():
        assert (variant.loo, variant.mdo) == (loo, mdo), variant
    # the routing default is the memory system's own, and build_system hands the config's switch to the system
    assert default_config("KG-W").gc_traffic_through_cache is MemorySystem.gc_traffic_through_cache
    for through in (True, False):
        system = build_system(default_config("KG-W", gc_traffic_through_cache=through))
        assert system.gc_traffic_through_cache is through


def test_string_variant_is_coerced():
    cfg = default_config("kg-w")
    assert cfg.variant is Collector.KG_W
    # the variant is derived, not a field: reports keep their config keys
    assert "variant" not in cfg.to_dict()


def test_effective_sizes():
    cfg = default_config("KG-B", nursery_size=4 * MIB, heap_budget=64 * MIB)
    assert cfg.effective_nursery_size == 12 * MIB
    assert cfg.observer_size == 0
    kgw = default_config("KG-W", nursery_size=4 * MIB, observer_multiplier=2.0)
    assert kgw.effective_nursery_size == 4 * MIB
    assert kgw.observer_size == 8 * MIB


def test_budget_must_cover_nursery():
    with pytest.raises(ConfigError):
        default_config("KG-B", nursery_size=4 * MIB, heap_budget=8 * MIB)
    default_config("KG-B", nursery_size=4 * MIB, heap_budget=12 * MIB)


@pytest.mark.parametrize("field", ["op_cost_ns", "byte_cost_ns"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_clock_costs_must_be_finite_and_non_negative(field, value):
    # an infinite cost made the simulated time NaN, and the report invalid JSON;
    # the type check names the field of a non-finite cost
    message = "costs must be finite and non-negative" if math.isfinite(value) else f"^{field} must be a finite number"
    with pytest.raises(ConfigError, match=message):
        default_config("KG-W", **{field: value})


@pytest.mark.parametrize("collector", ["KG-W", "PCM-Only"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0])
def test_observer_multiplier_must_be_finite_and_positive(collector, value):
    # the type check names the field of a non-finite multiplier
    message = "observer multiplier must be finite and positive"
    if not math.isfinite(value):
        message = "^observer_multiplier must be a finite number"
    with pytest.raises(ConfigError, match=message):
        default_config(collector, observer_multiplier=value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("large_threshold", math.nan),
        ("large_threshold", math.inf),
        ("large_relocation_threshold", math.nan),
        ("heap_budget", math.inf),
        ("lifetime_capacity_bytes", math.nan),
        ("nursery_size", math.nan),
        ("boot_object_size", math.inf),
        ("quantum", 2.5),
        ("instances", 2.0),
        ("seed", 1.5),
        ("cache_assoc", True),
        ("zeroing", 1),
        ("include_collector_time", None),
        ("warmup_fraction", True),
        ("lifetime_endurance", math.inf),
        ("lifetime_endurance", "1e7"),
        ("seed", None),
        ("collector", 3),
        ("collector", None),
        ("op_cost_ns", "5"),
        ("byte_cost_ns", [1]),
        ("observer_multiplier", None),
        ("workload", "nursery-churn"),
        ("trace_path", 3),
    ],
)
def test_every_field_holds_its_declared_type(field, value):
    # non-finite sizes and thresholds used to run and write NaN or Infinity
    # into the report; fractional counts and bad types escaped as raw errors,
    # and a trace path of 3 would have read file descriptor 3
    kinds = "an int|a bool|a finite number|a str|a str or None|a WorkloadSpec or None"
    with pytest.raises(ConfigError, match=rf"^{field} must be ({kinds}), not "):
        ExperimentConfig(**{"collector": "KG-W", "seed": 0, "workload": ONE_OP, field: value})


def test_a_lifetime_capacity_too_large_for_a_float_fails_before_the_run():
    # it used to run the whole trace and overflow in lifetime_years at report time
    with pytest.raises(ConfigError, match="finite number of bytes"):
        config_for_archetype("nursery-churn", "PCM-Only", 1, op_count=2000, quantum=100,
                             lifetime_capacity_bytes=10**400)


def test_a_float_field_takes_an_int():
    cfg = default_config("KG-W", op_cost_ns=5, warmup_fraction=0, lifetime_endurance=10**7)
    assert (cfg.op_cost_ns, cfg.warmup_fraction, cfg.lifetime_endurance) == (5, 0, 10**7)


def test_a_built_config_cannot_change():
    """Assigning a field would skip ``__post_init__``'s checks and leave ``variant`` stale."""
    cfg = default_config("KG-W")
    with pytest.raises(FrozenInstanceError):
        cfg.collector = "PCM-Only"
    with pytest.raises(FrozenInstanceError):
        cfg.heap_budget = 1
    with pytest.raises(FrozenInstanceError):
        cfg.workload.op_count = 0
    assert (cfg.collector, cfg.variant, cfg.heap_budget) == ("KG-W", Collector.KG_W, 64 * MIB)
    assert cfg.workload.op_count == 1


def test_every_archetype_gives_a_config_with_its_budget():
    budgets = {name: config_for_archetype(name, "KG-W", 1).heap_budget for name in ARCHETYPES}
    assert budgets == {"nursery-churn": 64 * MIB, "mature-mutation": 12 * MIB, "large-object-graph": 16 * MIB}


@pytest.mark.parametrize("op_count", [0, -3])
def test_archetype_config_rejects_a_non_positive_op_count(op_count):
    with pytest.raises(ConfigError, match="op_count must be positive"):
        config_for_archetype("large-object-graph", "KG-W", 1, op_count=op_count)
