"""End-to-end runs: scheduling, measurement windows, reports, sweeps."""

import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref

import pytest

import hybridgc
from hybridgc import harness
from hybridgc.config import Collector
from hybridgc.errors import ConfigError
from hybridgc.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    config_for_archetype,
    derive_seed,
    emit_report,
    run_baseline_pair,
    run_experiment,
    sweep,
)
from hybridgc.heap import HeapInstance
from hybridgc.memory import lifetime_years
from hybridgc.workloads import ReadOp, WorkloadSpec, WriteOp, default_spec, generate, serialize_trace

from support import KIB, MIB


def churn_config(collector="KG-W", seed=5, **overrides):
    return config_for_archetype("nursery-churn", collector, seed, op_count=20_000, **overrides)


def failing_slice_config():
    """A run whose budget runs out part way through a 10,000-op slice."""
    return config_for_archetype(
        "mature-mutation", "PCM-Only", 3, op_count=60_000, nursery_size=256 * KIB, heap_budget=1 * MIB
    )


class TestConfig:
    def test_exactly_one_op_source(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(collector="KG-W", seed=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(
                collector="KG-W",
                seed=1,
                workload=default_spec("nursery-churn", op_count=10),
                trace_path="x.trace",
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"instances": 0},
            {"quantum": 0},
            {"warmup_fraction": 1.0},
            {"warmup_fraction": -0.1},
            {"op_cost_ns": -5.0},
            {"byte_cost_ns": -0.25},
            {"byte_cost_ns": float("nan")},
            {"lifetime_efficiency": 2.0},
            {"lifetime_endurance": 0.0},
            {"lifetime_capacity_bytes": -1},
            {"nursery_size": 0},
            {"collector": "KG-B", "heap_budget": 8 * MIB},  # below the 12 MiB tripled nursery
            {"observer_multiplier": 0},
            {"observer_multiplier": 0.5},  # KG-W observes a whole nursery
            {"large_threshold": 0},
            {"large_relocation_threshold": -1},
            {"loo_nursery_fraction": 0},
            {"cache_capacity": 100},
            {"cache_assoc": 0},
            {"heap_size": 2052 * MIB},  # not whole pairs of 4 MiB chunks
            {"boot_size": -1},
            {"boot_size": 1013 * MIB},  # 1 MiB into the 12 MiB young region atop the 1 GiB half
        ],
        ids=lambda overrides: "-".join(f"{k}-{v}" for k, v in overrides.items()),
    )
    def test_rejects_bad_knobs(self, overrides):
        base = {"collector": "KG-W", "seed": 1, "workload": default_spec("nursery-churn", op_count=10)}
        with pytest.raises(ConfigError):
            ExperimentConfig(**{**base, **overrides})

    def test_unknown_collector_rejected_early(self):
        with pytest.raises(ConfigError):
            churn_config(collector="KG-X")

    def test_dict_round_trip(self):
        # the report's config must capture every field, the workload's included
        config = churn_config()
        data = config.to_dict()
        clone = ExperimentConfig(**{**data, "workload": WorkloadSpec(**data["workload"])})
        assert clone == config

    def test_derived_seeds_differ_per_instance(self):
        seeds = {derive_seed(7, i) for i in range(16)}
        assert len(seeds) == 16
        assert all(0 <= s < 1 << 63 for s in seeds)
        assert derive_seed(7, 0) != derive_seed(8, 0)


class TestSingleRun:
    def test_reports_are_byte_identical_across_runs(self):
        config = churn_config(cache_capacity=256 * KIB)
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.to_json() == second.to_json()
        assert first.to_csv() == second.to_csv()

    def test_different_seeds_give_different_traffic(self):
        a = run_experiment(churn_config(seed=5))
        b = run_experiment(churn_config(seed=6))
        assert a.aggregate.dram_write_bytes != b.aggregate.dram_write_bytes

    def test_lifetime_follows_the_write_rate(self):
        config = config_for_archetype("mature-mutation", "PCM-Only", 3, op_count=30_000)
        report = run_experiment(config)
        agg = report.aggregate
        assert agg.pcm_write_bytes > 0
        assert agg.pcm_write_rate_bps == pytest.approx(agg.pcm_write_bytes / report.sim_seconds)
        assert agg.lifetime_years == pytest.approx(
            lifetime_years(agg.pcm_write_rate_bps, ExperimentConfig.lifetime_model(config))
        )

    def test_warmup_excludes_the_leading_window(self):
        cold = run_experiment(churn_config(warmup_fraction=0.0, cache_capacity=0))
        warm = run_experiment(churn_config(warmup_fraction=0.5, cache_capacity=0))
        assert warm.aggregate.dram_write_bytes < cold.aggregate.dram_write_bytes
        assert warm.sim_seconds < cold.sim_seconds

    def test_failed_run_reports_the_op_position(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("A 1 64 0 0\nW 1 0 8\nW 2 0 8\n")
        config = ExperimentConfig(
            collector="KG-N", seed=1, trace_path=str(path), cache_capacity=0
        )
        report = run_experiment(config)
        assert report.failed
        assert report.error == {
            "instance": 0,
            "op_index": 2,
            "message": report.error["message"],
        }
        assert "TraceError" in report.error["message"]
        json.loads(report.to_json())  # still serializable

    def test_failed_run_counts_the_ops_of_its_failing_slice(self):
        config = failing_slice_config()
        report = run_experiment(config)
        assert report.failed
        assert report.error["op_index"] % config.quantum != 0
        assert report.rows[0].ops_executed == report.aggregate.ops_executed == report.error["op_index"]


# Runs a two-instance KG-W experiment with instance 1 corrupted, under
# ``python -O``, and prints its ``error`` plus whether asserts were on.
CORRUPTED_RUN = """
import json, sys
from hybridgc import harness
from hybridgc.address_space import MemoryKind
from hybridgc.harness import config_for_archetype, run_experiment

corrupt = sys.argv[1]
build_instance = harness.build_instance

def corrupted_instance(*args, **kwargs):
    heap = build_instance(*args, **kwargs)
    if heap.instance_id == 1:
        if corrupt == "placement":
            heap._name_boot_object(heap.boot_ids[-1]).addr = 0  # a DRAM boot object moved into PCM
        elif corrupt == "chunks":
            heap.layout.dram.release(heap.boot_space.lo // heap.layout.chunk_size)  # still under the boot image
        else:
            system = heap.system
            drain = system.drain

            def corrupted_drain():
                # 64 demanded bytes, never written, in the count of instance 1's first DRAM key
                dram_ids = [space.kid for space in heap.spaces.values() if space.kind is MemoryKind.DRAM]
                system.counters.demand[dram_ids[0]] += 64
                return drain()

            system.drain = corrupted_drain
    return heap

harness.build_instance = corrupted_instance
config = config_for_archetype(
    "mature-mutation", "KG-W", 7, op_count=6_000, instances=2, nursery_size=128 * 1024
)
report = run_experiment(config)
print(json.dumps({"debug": __debug__, "failed": report.failed, "error": report.error}))
"""


class TestInvariantFailures:
    @pytest.mark.parametrize(
        "corrupt, check, op_index",
        [
            ("placement", "landed at", None),
            ("chunks", "chunk 256 is both fixed and free DRAM", None),  # the split's index
            ("conservation", "not conserved", 6_000),
        ],
    )
    def test_a_broken_invariant_fails_the_report_under_optimize(self, corrupt, check, op_index):
        src = os.path.dirname(os.path.dirname(os.path.abspath(hybridgc.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", CORRUPTED_RUN, corrupt],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )  # fmt: skip
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["debug"] is False  # asserts are compiled away
        assert result["failed"] is True
        error = result["error"]
        assert error["instance"] == 1
        assert error["message"].startswith("InvariantError: ") and check in error["message"]
        if op_index is None:
            # the first minor collection's placement check, part way through the trace
            assert 0 < error["op_index"] < 6_000
        else:
            # after the drain: the instance's whole trace has run
            assert error["op_index"] == op_index


class TestRunLifetime:
    def test_finished_runs_free_their_heaps_without_cyclic_gc(self, monkeypatch):
        """A pair's first side must not hold its heap while the second runs."""
        refs = []
        build = harness.build_instance

        def tracked_build(*args, **kwargs):
            heap = build(*args, **kwargs)
            refs.append(weakref.ref(heap))
            return heap

        monkeypatch.setattr(harness, "build_instance", tracked_build)
        config = config_for_archetype(
            "mature-mutation", "KG-W", 7, op_count=6_000, instances=2, nursery_size=128 * KIB
        )
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            pair = run_baseline_pair(config)
            assert len(refs) == 4
            assert [ref() for ref in refs] == [None] * 4
        finally:
            if was_enabled:
                gc.enable()
        assert pair.baseline.aggregate.minor_collections > 0


class TestMultiprogram:
    def test_rows_sum_to_the_aggregate(self):
        config = churn_config(instances=2, cache_capacity=512 * KIB)
        report = run_experiment(config)
        assert len(report.rows) == 2
        for field in (
            "pcm_write_bytes",
            "dram_write_bytes",
            "pcm_read_bytes",
            "dram_read_bytes",
            "ops_executed",
            "minor_collections",
            "copied_bytes",
        ):
            total = sum(getattr(r, field) for r in report.rows)
            assert getattr(report.aggregate, field) == total, field

    def test_round_robin_runs_everyone_to_completion(self):
        config = churn_config(instances=3)
        report = run_experiment(config)
        assert [r.ops_executed for r in report.rows] == [20_000] * 3
        assert report.aggregate.instance == "all"

    def test_instances_replay_a_shared_trace(self, tmp_path):
        path = tmp_path / "tiny.trace"
        path.write_text("A 1 4096 0 0\nG 1\nW 1 0 64\nR 1 0 64\n")
        config = ExperimentConfig(
            collector="KG-N", seed=1, trace_path=str(path), instances=2, cache_capacity=0
        )
        report = run_experiment(config)
        assert [r.ops_executed for r in report.rows] == [4, 4]
        assert report.rows[0].workload == str(path)
        # same ops, disjoint address spaces: identical per-instance traffic
        assert report.rows[0].pcm_write_bytes == report.rows[1].pcm_write_bytes
        assert report.rows[0].dram_write_bytes == report.rows[1].dram_write_bytes


    @pytest.mark.parametrize("instances", [1, 4])
    def test_a_replay_consumes_its_parsed_ops_without_writing_them(self, tmp_path, monkeypatch, instances):
        """The run takes every op out of the one parsed list, and writes no record."""
        path = tmp_path / "churn.trace"
        with open(path, "w", encoding="utf-8") as fh:
            serialize_trace(generate(default_spec("nursery-churn", op_count=6_000, seed=3)), fh)
        parsed = []
        load_trace = harness.load_trace

        def capture(trace_path):
            ops = load_trace(trace_path)
            parsed.append((ops, list(ops)))  # the list the run gets, and a copy holding the same records
            return ops

        monkeypatch.setattr(harness, "load_trace", capture)
        config = ExperimentConfig(
            collector="KG-W", seed=1, trace_path=str(path), instances=instances, nursery_size=64 * KIB
        )
        report = run_experiment(config)
        assert not report.failed
        assert [r.ops_executed for r in report.rows] == [6_000] * instances
        assert report.aggregate.minor_collections > 0
        assert len(parsed) == 1
        ops, records = parsed[0]
        assert ops == []
        out = io.StringIO()
        serialize_trace(records, out)
        assert out.getvalue().encode("utf-8") == path.read_bytes()
        # op records compare by class as well as by fields
        assert WriteOp(1, 2, 3) != ReadOp(1, 2, 3)

    def test_a_failed_round_counts_only_completed_slices(self, tmp_path):
        """The failing slice's ops and collections count in the failing instance's row alone."""
        path = tmp_path / "graph.trace"
        with open(path, "w", encoding="utf-8") as fh:
            serialize_trace(generate(default_spec("large-object-graph", op_count=12_000, seed=9)), fh)
        config = ExperimentConfig(
            collector="KG-W",
            seed=1,
            trace_path=str(path),
            instances=2,
            quantum=1_000,
            nursery_size=1 * MIB,
            heap_budget=5 * MIB,
            chunk_size=256 * KIB,
            cache_capacity=2 * MIB,
        )
        report = run_experiment(config)
        assert report.error == {
            "instance": 0,
            "op_index": 10_568,
            "message": "HeapExhausted: 5766328 live bytes exceed the 5242880-byte budget",
        }
        assert [r.ops_executed for r in report.rows] == [10_568, 10_000]
        assert [(r.minor_collections, r.major_collections) for r in report.rows] == [(12, 9), (11, 8)]

    @pytest.mark.parametrize("source, instances, per_op", [("trace", 1, 1), ("archetype", 2, 1), ("trace", 4, 1 / 4)])
    def test_only_instances_that_replay_one_trace_share_a_heap_pass(
        self, tmp_path, monkeypatch, source, instances, per_op
    ):
        """Instances replaying one trace apply each op to one heap; any other run, to each instance's own."""
        calls = []
        for method in ("alloc_object", "write_data", "read_data", "write_ref", "set_root"):
            op = getattr(HeapInstance, method)

            def counted(*args, op=op):
                calls.append(None)
                return op(*args)

            monkeypatch.setattr(HeapInstance, method, counted)
        config = config_for_archetype("nursery-churn", "KG-W", 5, op_count=6_000, instances=instances)
        if source == "trace":
            path = tmp_path / "churn.trace"
            with open(path, "w", encoding="utf-8") as fh:
                serialize_trace(generate(config.workload), fh)
            config = ExperimentConfig(collector="KG-W", seed=5, trace_path=str(path), instances=instances)
        report = run_experiment(config)
        assert not report.failed
        assert report.aggregate.ops_executed == 6_000 * instances
        assert len(calls) == report.aggregate.ops_executed * per_op


class TestReportFormats:
    def test_csv_shape(self):
        report = run_experiment(churn_config(instances=2))
        lines = report.to_csv().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4  # header, two instances, aggregate
        parsed = list(csv.DictReader(io.StringIO(report.to_csv())))
        assert [row["instance"] for row in parsed] == ["0", "1", "all"]
        assert parsed[0]["collector"] == "KG-W"

    def test_emit_report_to_path_and_file(self, tmp_path):
        report = run_experiment(churn_config())
        path = tmp_path / "out.json"
        emit_report(report, "json", str(path))
        assert json.loads(path.read_text())["collector"] == "KG-W"
        buf = io.StringIO()
        emit_report(report, "csv", buf)
        assert buf.getvalue() == report.to_csv()
        with pytest.raises(ConfigError):
            emit_report(report, "yaml", str(path))


class TestComparisons:
    def test_baseline_pair_reports_the_reduction(self):
        pair = run_baseline_pair(churn_config(collector="KG-W"))
        assert pair.baseline.collector == "PCM-Only"
        assert pair.baseline.aggregate.pcm_write_bytes > 0
        expected = 1.0 - (
            pair.variant.aggregate.pcm_write_bytes / pair.baseline.aggregate.pcm_write_bytes
        )
        reduction = pair.variant.reduction_vs_baseline
        assert reduction == pytest.approx(expected)
        assert pair.variant.baseline_collector == "PCM-Only"
        last_cell = pair.variant.to_csv().splitlines()[-1].split(",")[-1]
        assert last_cell == repr(reduction)

    def test_pair_rejects_identical_collectors(self):
        with pytest.raises(ConfigError):
            run_baseline_pair(churn_config(collector="PCM-Only"))

    def test_sweep_checks_every_point_before_running_any(self, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", runs.append)
        config = config_for_archetype("nursery-churn", "KG-W", 5, op_count=5000)
        with pytest.raises(ConfigError):
            sweep(config, ["KG-W"], [256 * KIB, 100], [1])
        assert runs == []

    @pytest.mark.parametrize(
        "collectors, caches, counts",
        [
            (["KG-W", "kg-w "], [0], [1]),  # one variant spelled two ways
            (["KG-W-LOO", "KG-W\u2212LOO"], [0], [1]),  # with a unicode minus
            (["KG-W"], [256 * KIB, 256 * KIB], [1]),
            (["PCM-Only", "KG-N"], [0], [2, 1, 2]),
        ],
    )
    def test_sweep_rejects_a_repeated_point(self, monkeypatch, collectors, caches, counts):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", runs.append)
        config = config_for_archetype("nursery-churn", "KG-W", 5, op_count=5000)
        with pytest.raises(ConfigError, match="repeats an earlier point"):
            sweep(config, collectors, caches, counts)
        assert runs == []

    def test_sweep_covers_the_cross_product(self):
        config = config_for_archetype("nursery-churn", "KG-W", 5, op_count=5000)
        points = list(sweep(config, ["PCM-Only", "KG-N"], [0, 256 * KIB], [1]))
        assert [label for label, _ in points] == [
            "PCM-Only_cache0_n1",
            "PCM-Only_cache262144_n1",
            "KG-N_cache0_n1",
            "KG-N_cache262144_n1",
        ]
        assert all(not report.failed for _, report in points)
        caches = {json.loads(r.to_json())["config"]["cache_capacity"] for _, r in points}
        assert caches == {0, 256 * KIB}


class TestPinnedResults:
    """Simulated results of small pairs, recorded before the cache model's
    per-access batching and pinned so any change to them is deliberate."""

    CASES = {
        "large-object-graph": dict(
            op_count=3_000,
            instances=2,
            quantum=500,
            nursery_size=1 * MIB,
            heap_budget=4 * MIB,
            chunk_size=256 * KIB,
            cache_capacity=1 * MIB,
        ),
        "mature-mutation": dict(
            op_count=30_000,
            nursery_size=128 * KIB,
            heap_budget=4 * MIB,
            chunk_size=256 * KIB,
            cache_capacity=128 * KIB,
        ),
    }
    # side -> (llc_fills, llc_writebacks, pcm_write_bytes, dram_write_bytes)
    EXPECTED = {
        "large-object-graph": {
            "PCM-Only": (186_056, 199_660, 12_778_240, 0),
            "KG-W": (503_305, 383_292, 12_152_704, 12_377_984),
        },
        "mature-mutation": {
            "PCM-Only": (61_506, 42_406, 2_713_984, 0),
            "KG-W": (102_420, 62_865, 1_382_208, 2_641_152),
        },
    }

    @pytest.mark.parametrize("archetype", sorted(CASES))
    def test_pair_traffic_is_unchanged(self, archetype):
        pair = run_baseline_pair(config_for_archetype(archetype, "KG-W", 7, **self.CASES[archetype]))
        for report in (pair.baseline, pair.variant):
            assert not report.failed
            got = (
                report.llc_fills,
                report.llc_writebacks,
                report.aggregate.pcm_write_bytes,
                report.aggregate.dram_write_bytes,
            )
            assert got == self.EXPECTED[archetype][report.collector]

    # (op_cost_ns, byte_cost_ns, include_collector_time) -> (sim_seconds,
    # final now_ns) of a two-instance KG-W mature-mutation run with
    # 10 minor and 4 observer collections, whose copies advance the clock
    # only when collector time counts; recorded before the clock's cost
    # expression was inlined. The default costs are multiples of 1/4, so
    # every sum is exact; 5.1 and 0.3 are not, so a changed order of
    # summation moves the last bits.
    CLOCK = {
        (5.0, 0.25, True): (0.000508613, 1_794_794.25),
        (5.0, 0.25, False): (8.9195e-05, 536_918.25),
        (5.1, 0.3, True): (0.0006019854000001338, 2_117_940.3000002634),
        (5.1, 0.3, False): (0.00010343399999997689, 622_701.8999998977),
    }

    @pytest.mark.parametrize("op_cost_ns,byte_cost_ns,include_collector_time", sorted(CLOCK))
    def test_simulated_time_is_unchanged(self, monkeypatch, op_cost_ns, byte_cost_ns, include_collector_time):
        systems = []
        build_system = harness.build_system

        def capture(config):
            systems.append(build_system(config))
            return systems[-1]

        monkeypatch.setattr(harness, "build_system", capture)
        config = config_for_archetype(
            "mature-mutation",
            "KG-W",
            7,
            op_count=12_000,
            instances=2,
            nursery_size=128 * KIB,
            include_collector_time=include_collector_time,
            op_cost_ns=op_cost_ns,
            byte_cost_ns=byte_cost_ns,
        )
        report = run_experiment(config)
        assert not report.failed
        assert (report.aggregate.minor_collections, report.aggregate.observer_collections) == (10, 4)
        expected = self.CLOCK[(op_cost_ns, byte_cost_ns, include_collector_time)]
        assert (report.sim_seconds, systems[0].now_ns) == expected


class TestPinnedReports:
    """SHA-256 of ``to_json() + to_csv()`` for every variant on one small
    input, with the default LLC and with no cache. A refactor keeps these
    digests; a declared model change re-pins them and records the old and
    new values in CHANGES.md. ``quantum`` is 500 because at the default
    10,000-op quantum these 6,000-op runs have an empty measurement window
    and would pin only the drain."""

    CONFIG = dict(op_count=6_000, nursery_size=1 * MIB, heap_budget=6 * MIB, quantum=500)
    DIGESTS = {
        "llc": {
            "PCM-Only": "08a6415b114e1c39d5819d9e181533883c3d314f8b1cb7820b2653d243980b6d",
            "KG-N": "d348ce783fbe68c2b21e5d2cfe87ee00f9a18a83a2855ee9c18ac1fe37e3f928",
            "KG-B": "42df0eebd4f383948440b244ee7bfb7ffc63f905b4beb3f3abd9ec20b6a23d5b",
            "KG-N+LOO": "2ad9d666c3a79491fa671379b462c50bf02e95432443544d7336b54c3dcb34a8",
            "KG-B+LOO": "99f15c85c8f70562617ace2a568aaf808aa1fb6dd1293a99f99195b8efbb6c4f",
            "KG-W": "02e7cf19925a2be134a7d39f5f9bf4ea54c3aebb039c7cb6b83cc9491ad7a1cc",
            "KG-W-LOO": "b849eb912e8d844a319b135a1928a9772a4ef5274395e675b245f14c2a3d396f",
            "KG-W-MDO": "f26d561da2248593b20ce93b698ffbac0a2673c05c47f7733db53d648609a4cc",
        },
        "no-cache": {
            "PCM-Only": "2bd7f1cd9a98c2ac565436262b4241b76c141baf033de163e00cc77adb208ced",
            "KG-N": "c668317966aa99e2e3311720a61eae95c67771d54b083dcd5d27499130e86051",
            "KG-B": "c392e8f7d6a971ac92f8df44f23aacf8f248a82af804f5abb7fc125258eaea21",
            "KG-N+LOO": "06e9dd9e8ad66b5197240de60eb6c6ad365294d775d55566aeb92d5874a6a182",
            "KG-B+LOO": "35b3ae687f42be7978a692016128e8b3497c8b1bebc993d99edf34b1ec86706e",
            "KG-W": "af0212eeac12941080d464694070d379452d0dfffd2baf9cf82d2679758fa3da",
            "KG-W-LOO": "4890cc30da43b3e9627bf334598a6ee88aacf32b2a5c3dd6eeb76f2c78c26570",
            "KG-W-MDO": "20e46715aee53c527b3db653f89ddfdd6482c0ffd09b1f29ec006318faa38a9d",
        },
    }
    CACHE = {"llc": {}, "no-cache": {"cache_capacity": 0}}

    @pytest.mark.parametrize("collector", [c.value for c in Collector])
    @pytest.mark.parametrize("fidelity", sorted(DIGESTS))
    def test_report_bytes_are_unchanged(self, fidelity, collector):
        config = config_for_archetype(
            "large-object-graph", collector, 5, **self.CONFIG, **self.CACHE[fidelity]
        )
        report = run_experiment(config)
        assert not report.failed
        digest = hashlib.sha256((report.to_json() + report.to_csv()).encode()).hexdigest()
        assert digest == self.DIGESTS[fidelity][collector]


class TestPinnedReplayReports:
    """SHA-256 of ``to_json() + to_csv()`` for runs whose instances all
    replay one recorded trace, recorded while every instance still drove a
    heap of its own. They pin how the instances' traffic interleaves in
    the shared cache and on the shared clock, and which collections and
    ops each row counts when a run fails part way through a round. The
    traces are written by ``serialize_trace(generate(...))`` and named by
    a path relative to their directory, since the path is part of a
    report."""

    TRACES = {
        "churn": ("nursery-churn", 6_000, 11),
        "mature": ("mature-mutation", 8_000, 3),
        "large": ("large-object-graph", 6_000, 3),
    }
    BAD_OP_AT = 2_345  # the "mature" trace with an op on an unknown id inserted here
    MATURE = dict(nursery_size=64 * KIB, heap_budget=1 * MIB, chunk_size=64 * KIB, quantum=500)
    LARGE = dict(nursery_size=64 * KIB, heap_budget=5 * MIB, chunk_size=256 * KIB, quantum=500)
    SMALL_LLC = dict(cache_capacity=256 * KIB)
    # name -> (trace, collector, instances, overrides)
    CASES = {
        "churn-4x": ("churn", "KG-W", 4, dict(quantum=500)),
        # 5.1 and 0.3 are not sums of powers of two, so a changed order of clock additions moves the last bits
        "churn-4x-inexact-clock": ("churn", "KG-W", 4, dict(quantum=500, op_cost_ns=5.1, byte_cost_ns=0.3)),
        **{
            f"{shape}-{collector}": (trace, collector, n, overrides)
            # the outermost iterable is the only part evaluated in class scope
            for shape, trace, n, overrides in (
                ("mature-small-llc", "mature", 2, {**MATURE, **SMALL_LLC}),
                ("large-llc", "large", 2, LARGE),
                ("large-no-cache", "large", 3, {**LARGE, "cache_capacity": 0}),
            )
            for collector in ("PCM-Only", "KG-W", "KG-W-MDO", "KG-B+LOO")
        },
        "large-gc-bypass-KG-W": ("large", "KG-W", 2, {**LARGE, **SMALL_LLC, "gc_traffic_through_cache": False}),
        "trace-error": ("bad", "KG-W", 3, {**MATURE, **SMALL_LLC}),
        "heap-exhausted": ("mature", "PCM-Only", 3, {**MATURE, **SMALL_LLC, "heap_budget": 384 * KIB}),
        # one instance, whose own heap drives the replay stream
        "mature-small-llc-1x-KG-W": ("mature", "KG-W", 1, {**MATURE, **SMALL_LLC}),
        "trace-error-1x": ("bad", "KG-W", 1, {**MATURE, **SMALL_LLC}),
    }
    DIGESTS = {
        # no collection
        "churn-4x": "27a6fd30ef676d4c59d6d9771e701c2c7a349bb323f24143733036b60188e8ea",
        "churn-4x-inexact-clock": "5d35a65075e5d8c1b42a2bc93ce832eb2a269eb98696dac22c5926018ed7cd62",
        # minors, and observer collections under KG-W and KG-W-MDO
        "mature-small-llc-PCM-Only": "c29b38f923c19704fcfc7e3a33abb4b92ca75feeb39f0e58ef6b12291e30fa02",
        "mature-small-llc-KG-W": "c9b42670a1bd46480486c9f8120d689142677861f42ea4de506e161a575566fd",
        "mature-small-llc-KG-W-MDO": "f48126f1218b8d90f63aa35a585fc0be39d8e249057fa446d832de891c241e67",
        "mature-small-llc-KG-B+LOO": "d3561fbeed4e9423226db290fceb56374d1346f98c060108c890f6ecbdb87d7f",
        # minors and majors, and large-object relocations under LOO
        "large-llc-PCM-Only": "858536f4dba508b3db40596c3cefcd044f78e162ee230d1900cb7492da375ee9",
        "large-llc-KG-W": "12a8e2effd1ac0092088bbcd99f91dcfdefc2123a07b3beb252ba0defefdf640",
        "large-llc-KG-W-MDO": "4824895ffd67ce37022d77eb8e584c6b589ebdd7093a8689fdba659fe0755a2b",
        "large-llc-KG-B+LOO": "fc01a1ea5b6c251cc0bcc37828e1304abab5de428cded786b94f8ac0c7126d60",
        "large-no-cache-PCM-Only": "73a349eba8df7b2549e5d3ef1738b109ff7d3cafe1d5855b55a2221fcaf1e9d4",
        "large-no-cache-KG-W": "5d50d5ebe638981074c6ed24a96c5d8b14e89c5c5fe4872036abed432d56eb5b",
        "large-no-cache-KG-W-MDO": "f2800adcf59627311465cbbec1e0215ac358ac2657b40648e223f011576daa22",
        "large-no-cache-KG-B+LOO": "e9a3fcbe01f97f37ef7b0b995d8b183e301a02b18c9bf4282c7f0662136ce373",
        "large-gc-bypass-KG-W": "19c246773a0fa317877c97dcef08aa3f74299adddf7fc65603cede1bb5968020",
        # instance 0 stops at op 2,345, in its fifth round
        "trace-error": "c77040ae80486d3d5aaa93a7a590290747251af33f750dff5477572a200111f1",
        # instance 0 stops at op 7,908 with HeapExhausted, after one more minor than the other rows count
        "heap-exhausted": "79fe3718837a5d280e9612965fc9de93c3bba8f60dc12933915fd95043e39eb1",
        # recorded while a replay's parsed list stayed whole to the end of the run
        "mature-small-llc-1x-KG-W": "7ffbc84719fcb13244a30fe910ce184ecd361bb0d3989c66d28a49cdd0d8288f",
        # the one instance stops at op 2,345, after two minors
        "trace-error-1x": "dbd1309c8360f835d248b18e1299aa13c014b5e3e4a49c5014af52284d707020",
    }

    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("replays")
        for name, (archetype, ops, seed) in self.TRACES.items():
            with open(root / f"{name}.trace", "w", encoding="utf-8") as fh:
                serialize_trace(generate(default_spec(archetype, op_count=ops, seed=seed)), fh)
        lines = (root / "mature.trace").read_text().splitlines(keepends=True)
        lines.insert(self.BAD_OP_AT, "W 999999 0 8\n")
        (root / "bad.trace").write_text("".join(lines))
        return root

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_bytes_are_unchanged(self, trace_dir, monkeypatch, case):
        trace, collector, instances, overrides = self.CASES[case]
        monkeypatch.chdir(trace_dir)
        config = ExperimentConfig(
            collector=collector, seed=1, trace_path=f"{trace}.trace", instances=instances, **overrides
        )
        report = run_experiment(config)
        digest = hashlib.sha256((report.to_json() + report.to_csv()).encode()).hexdigest()
        assert digest == self.DIGESTS[case]


class TestCyclicCollectorSwitch:
    """``run_experiment`` runs with CPython's cyclic collector off, leaves
    no garbage that only the collector could free, and restores the
    caller's setting."""

    @staticmethod
    def cyclic_garbage(config):
        """The report of ``config``'s run and the objects a full collection then finds unreachable."""
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()  # so no automatic pass frees the run's garbage before the count
        try:
            report = run_experiment(config)
            return report, gc.collect()
        finally:
            if was_enabled:
                gc.enable()

    # the pinned reports' input, with and without the LLC, and a shape
    # with minor and observer collections in every variant that has them
    SHAPES = {
        **{
            f"pinned-{fidelity}": ("large-object-graph", {**TestPinnedReports.CONFIG, **cache})
            for fidelity, cache in TestPinnedReports.CACHE.items()
        },
        "collecting": (
            "mature-mutation",
            dict(op_count=20_000, nursery_size=256 * KIB, heap_budget=8 * MIB, chunk_size=256 * KIB, quantum=500),
        ),
    }

    @pytest.mark.parametrize("collector", [c.value for c in Collector])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_a_run_leaves_no_cyclic_garbage(self, shape, collector):
        archetype, overrides = self.SHAPES[shape]
        report, unreachable = self.cyclic_garbage(config_for_archetype(archetype, collector, 5, **overrides))
        assert not report.failed
        if shape == "collecting":
            assert report.aggregate.minor_collections
            assert report.aggregate.observer_collections or not Collector(collector).is_write_sampling
        assert unreachable == 0

    def test_a_failed_run_leaves_no_cyclic_garbage(self):
        report, unreachable = self.cyclic_garbage(failing_slice_config())
        assert report.failed
        assert unreachable == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_callers_setting_is_restored(self, enabled, tmp_path, monkeypatch):
        during = []
        drive = harness.drive

        def probed_drive(*args):
            during.append(gc.isenabled())
            return drive(*args)

        monkeypatch.setattr(harness, "drive", probed_drive)
        missing = ExperimentConfig(collector="KG-N", seed=1, trace_path=str(tmp_path / "missing.trace"))
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert not run_experiment(churn_config()).failed
            assert gc.isenabled() is enabled
            with pytest.raises(FileNotFoundError):
                run_experiment(missing)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert during and not any(during)
