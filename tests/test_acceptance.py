"""Acceptance checks, one test per criterion.

Each test prints a single [criterion NN] PASS/FAIL line with the numbers
behind the verdict. Expensive desk-scale runs are cached and shared.
"""

import time

from hybridgc.harness import config_for_archetype, run_experiment
from hybridgc.heap import HeapInstance
from hybridgc.memory import LifetimeModel, lifetime_years
from hybridgc.workloads import ARCHETYPES

from gc_reference import check_collections
from support import KIB, MIB
from test_cache_oracle import SMALL_GEOMETRIES, run_pair as cache_pair

SEED = 11
MULTI_SEED = 23

_RUNS: dict = {}


def desk_run(archetype: str, collector: str, **overrides):
    """A cached run at desk scale: 4 MiB nursery, 2 MiB cache, canned seed.

    A run that fails is rejected where it is made, never cached.
    """
    key = (archetype, collector, tuple(sorted(overrides.items())))
    if key not in _RUNS:
        params = {"cache_capacity": 2 * MIB, **overrides}
        report = run_experiment(config_for_archetype(archetype, collector, SEED, **params))
        assert not report.failed, (key, report.error)
        _RUNS[key] = report
    return _RUNS[key]


def pcm_writes(report) -> int:
    assert not report.failed, report.error
    return report.aggregate.pcm_write_bytes


def check(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {name}: {verdict} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def test_criterion_01_lifetime_formula():
    model = LifetimeModel()
    y480 = lifetime_years(480e6, model)
    y126 = lifetime_years(126e6, model)
    ok = abs(y480 - 10.5) <= 0.02 * 10.5 and abs(y126 - 40.2) <= 0.02 * 40.2
    check(
        1,
        "lifetime formula",
        ok,
        f"480 MB/s -> {y480:.4f} y (want 10.5 +/- 2%), 126 MB/s -> {y126:.4f} y (want 40.2 +/- 2%)",
    )


def test_criterion_02_routing_ordering():
    t0 = time.monotonic()
    results = {
        arch: [pcm_writes(desk_run(arch, c)) for c in ("PCM-Only", "KG-N", "KG-W")]
        for arch in ARCHETYPES
    }
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    parts = []
    for arch, (base, kgn, kgw) in results.items():
        if arch == "nursery-churn":
            ok = ok and base > kgn > kgw
        else:
            ok = ok and base >= kgn >= kgw
        parts.append(f"{arch}: {base} / {kgn} / {kgw}")
    check(
        2,
        "PCM writes ordered PCM-Only >= KG-N >= KG-W",
        ok,
        "; ".join(parts) + f"; {elapsed:.1f}s",
    )


def test_criterion_03_bigger_nursery_matches_kgn():
    ok = True
    parts = []
    for arch in ARCHETYPES:
        kgb = pcm_writes(desk_run(arch, "KG-B"))
        kgn = pcm_writes(desk_run(arch, "KG-N"))
        ok = ok and kgb <= 1.1 * kgn
        parts.append(f"{arch}: KG-B {kgb} vs 1.1x KG-N {1.1 * kgn:.0f}")
    check(3, "KG-B within 1.1x of KG-N", ok, "; ".join(parts))


def test_criterion_04_large_object_ablation():
    with_loo = pcm_writes(desk_run("large-object-graph", "KG-W"))
    without = pcm_writes(desk_run("large-object-graph", "KG-W-LOO"))
    ok = without > with_loo > 0
    ratio = without / with_loo if with_loo else float("inf")
    check(
        4,
        "dropping large-object handling raises PCM writes",
        ok,
        f"KG-W-LOO {without} > KG-W {with_loo} (ratio {ratio:.2f})",
    )


def test_criterion_05_metadata_ablation_exact():
    # no cache and no warm-up so the byte accounting is closed-form
    kgw = desk_run("large-object-graph", "KG-W", cache_capacity=0, warmup_fraction=0.0)
    bare = desk_run("large-object-graph", "KG-W-MDO", cache_capacity=0, warmup_fraction=0.0)
    excess = pcm_writes(bare) - pcm_writes(kgw)
    mark_lines = bare.aggregate.mark_writes_pcm - kgw.aggregate.mark_writes_pcm
    line = 64
    ok = (
        bare.aggregate.major_collections >= 1
        and excess > 0
        and excess == mark_lines * line
    )
    check(
        5,
        "metadata placement excess equals marked PCM objects x line size",
        ok,
        f"excess {excess} == {mark_lines} marks x {line} B, "
        f"majors {bare.aggregate.major_collections}",
    )


def test_criterion_06_multiprogram_interference():
    t0 = time.monotonic()

    def multi(collector: str, n: int) -> int:
        config = config_for_archetype(
            "nursery-churn", collector, MULTI_SEED, cache_capacity=8 * MIB, instances=n
        )
        return pcm_writes(run_experiment(config))

    base1 = multi("PCM-Only", 1)
    base4 = multi("PCM-Only", 4)
    kgw1 = multi("KG-W", 1)
    kgw4 = multi("KG-W", 4)
    elapsed = time.monotonic() - t0
    superlinear = base4 > 4 * base1 > 0
    near_linear = (kgw1 == 0 and kgw4 == 0) or (kgw1 > 0 and kgw4 <= 4 * 1.25 * kgw1)
    ok = superlinear and near_linear and elapsed < 120.0
    check(
        6,
        "shared-cache interference is super-linear only for PCM-Only",
        ok,
        f"PCM-Only {base4} vs 4x{base1}={4 * base1}; KG-W {kgw4} vs cap {5 * kgw1}; {elapsed:.1f}s",
    )


def test_criterion_07_cache_matches_reference():
    accesses = 0
    seeds = range(10)
    for seed in seeds:
        for geometry in SMALL_GEOMETRIES:
            cache_pair(geometry, seed=seed, n_accesses=1500)
            accesses += 1500
    ok = accesses >= 100_000
    check(
        7,
        "cache equals brute-force reference on all small geometries",
        ok,
        f"{accesses} accesses, {len(seeds)} seeds, {len(SMALL_GEOMETRIES)} geometries",
    )


def test_criterion_08_live_sets_match_reachability():
    variants = ("KG-W", "KG-N", "PCM-Only", "KG-N+LOO", "KG-W-MDO")
    minors = majors = 0
    for seed in range(20):
        counts = check_collections(1000 + seed, variants[seed % len(variants)])
        minors += counts["minor"]
        majors += counts["major"]
    ok = minors >= 40 and majors >= 20
    check(
        8,
        "collector live sets equal shadow reachability",
        ok,
        f"20 seeds, {minors} minor and {majors} major collections verified",
    )


def test_criterion_09_byte_identical_reports():
    config = config_for_archetype(
        "nursery-churn", "KG-W", 7, op_count=60_000, cache_capacity=512 * KIB, instances=2
    )
    first = run_experiment(config)
    second = run_experiment(config)
    ok = first.to_json() == second.to_json() and first.to_csv() == second.to_csv()
    check(
        9,
        "same config and seed give byte-identical reports",
        ok,
        f"json {len(first.to_json())} B and csv {len(first.to_csv())} B compared",
    )


def test_criterion_10_always_on_accounting(monkeypatch):
    # No switch turns the built-in checks off: a run checks write
    # conservation after its drain, and placement and chunk accounting
    # after each collection. Count the checks of one run and require it
    # to pass them; every cached desk run is checked where it is made.
    calls = {}

    def count_calls(owner, name):
        check_fn = getattr(owner, name)

        def counted(self):
            calls[name] = calls.get(name, 0) + 1
            return check_fn(self)

        monkeypatch.setattr(owner, name, counted)

    count_calls(HeapInstance, "check_write_conservation")
    count_calls(HeapInstance, "check_placement")
    config = config_for_archetype(
        "large-object-graph",
        "KG-W",
        SEED,
        op_count=3_000,
        nursery_size=1 * MIB,
        heap_budget=4 * MIB,
        chunk_size=256 * KIB,
    )
    report = run_experiment(config)
    minors, majors = report.aggregate.minor_collections, report.aggregate.major_collections
    # an observer evacuation runs inside a minor collection
    expected = {"check_write_conservation": 1, "check_placement": minors + majors}
    counted = minors > 0 and majors > 0 and calls == expected
    check(
        10,
        "conservation and chunk accounting enforced in every run",
        counted and not report.failed,
        f"failed: {report.error}; checks in a run of {minors} minors and {majors} majors: {calls}",
    )
