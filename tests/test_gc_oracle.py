"""Collector live sets must match reachability computed without the collector."""

import pytest

from hybridgc.config import Collector

from gc_reference import check_collections

# Seed k runs VARIANTS[k]; every collector variant is covered.
VARIANTS = ("KG-W", "KG-N", "PCM-Only", "KG-N+LOO", "KG-W-MDO", "KG-B", "KG-B+LOO", "KG-W-LOO")


def test_every_collector_variant_is_listed():
    assert sorted(VARIANTS) == sorted(c.value for c in Collector)


@pytest.mark.parametrize("seed", range(len(VARIANTS)))
def test_live_sets_match_shadow_reachability(seed):
    variant = VARIANTS[seed]
    checks = check_collections(seed, variant)
    assert checks["minor"] >= 3
    assert checks["major"] >= 1


def test_every_variant_is_exercised_with_majors():
    for i, variant in enumerate(VARIANTS):
        checks = check_collections(100 + i, variant)
        assert checks["major"] >= 1, variant
