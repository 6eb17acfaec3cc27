"""Run one input of a workload as a KG-W vs PCM-Only pair in this process.

Usage (from the checkout root; ``run.py`` starts one of these per pair):

    python3 perfbench/pair.py --workload NAME --seed N [--input K]
        [--scale F] [--launch T] [--trace-out PATH]

The last line of standard output is one JSON object: host seconds in the
pair call (without the reference kernel), the reference kernel's speed, peak
RSS, the simulated results of both sides, a digest of both reports, the
output-check problems found, and with ``--trace-out`` the per-layer
metrics (the spans go to PATH).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from suite import BASELINE, SIDES, SRC, VARIANT, WORKLOADS, Workload, trace_path

# InstanceReport fields that must add up from the instance rows to the aggregate.
ADDITIVE_FIELDS = (
    "ops_executed",
    "pcm_write_bytes",
    "dram_write_bytes",
    "pcm_read_bytes",
    "dram_read_bytes",
    "minor_collections",
    "observer_collections",
    "major_collections",
    "copied_bytes",
    "mark_writes",
    "mark_writes_pcm",
    "large_relocations",
)


# The host's speed drifts by tens of percent over seconds on a shared
# machine. Untraced pairs run this fixed interpreter-bound kernel after
# every drive slice, so host time can be rescaled to a reference speed.
REF_ITERATIONS = 20_000
REF_RATE = 8.0e6  # kernel iterations per reference second


def reference_kernel() -> None:
    table: dict[int, int] = {}
    for i in range(REF_ITERATIONS):
        key = i & 255
        table[key] = table.get(key, 0) + i


def monotonic() -> float:
    """System-wide clock, comparable between this process and its parent."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_hybridgc() -> None:
    """Import the simulator from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import hybridgc

    if not os.path.abspath(hybridgc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hybridgc imported from {hybridgc.__file__}, not from {SRC}")


def input_seed(seed: int, index: int) -> int:
    """Master seed of input ``index``; input 0 runs with the benchmark seed itself."""
    from hybridgc.harness import derive_seed

    return seed if index == 0 else derive_seed(seed, index)


def make_config(workload: Workload, seed: int, index: int, scale: float):
    from hybridgc.harness import ExperimentConfig, config_for_archetype

    overrides = {"instances": workload.instances}
    for field, value in (
        ("nursery_size", workload.nursery),
        ("cache_capacity", workload.cache),
        ("heap_budget", workload.budget),
        ("quantum", workload.quantum),
    ):
        if value is not None:
            overrides[field] = value
    master = input_seed(seed, index)
    if workload.replay:
        path = trace_path(workload, seed, index)
        return ExperimentConfig(collector=VARIANT, seed=master, trace_path=path, **overrides)
    return config_for_archetype(workload.archetype, VARIANT, master, op_count=workload.ops(scale), **overrides)


def check_pair(pair) -> list[str]:
    """Output checks on both reports of a pair; returns the problems found."""
    problems = []
    for side, report in ((BASELINE, pair.baseline), (VARIANT, pair.variant)):
        if report.failed:
            problems.append(f"{side}: run failed: {report.error}")
        if report.sim_seconds <= 0:
            problems.append(f"{side}: the measurement window holds no simulated time")
        agg = report.aggregate
        line = report.config["cache_line"]
        if agg.pcm_write_bytes + agg.dram_write_bytes != report.llc_writebacks * line:
            problems.append(
                f"{side}: {agg.pcm_write_bytes} PCM + {agg.dram_write_bytes} DRAM write bytes"
                f" != {report.llc_writebacks} writebacks x {line} B"
            )
        for name in ADDITIVE_FIELDS:
            rows = sum(getattr(row, name) for row in report.rows)
            if rows != getattr(agg, name):
                problems.append(f"{side}: instance rows sum {name}={rows}, aggregate has {getattr(agg, name)}")
    return problems


def side_summary(report) -> dict:
    agg = report.aggregate
    return {
        "pcm_write_bytes": agg.pcm_write_bytes,
        "sim_seconds": report.sim_seconds,
        "minor": agg.minor_collections,
        "observer": agg.observer_collections,
        "major": agg.major_collections,
    }


def run(workload: Workload, seed: int, index: int, scale: float, trace_out: str | None) -> dict:
    from hybridgc import harness

    config = make_config(workload, seed, index, scale)
    tracer = None
    if trace_out is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    probe = {"first_op_at": None, "ref_s": 0.0, "ref_runs": 0}
    drive = harness.drive

    def probed_drive(*args, **kwargs):
        if probe["first_op_at"] is None:
            probe["first_op_at"] = monotonic()
        result = drive(*args, **kwargs)
        if tracer is None:
            t0 = monotonic()
            reference_kernel()
            probe["ref_s"] += monotonic() - t0
            probe["ref_runs"] += 1
        return result

    harness.drive = probed_drive
    start = monotonic()
    pair = harness.run_baseline_pair(config, baseline=BASELINE)
    host_s = monotonic() - start - probe["ref_s"]
    harness.drive = drive
    digest = hashlib.sha256((pair.baseline.to_json() + "\n" + pair.variant.to_json()).encode()).hexdigest()

    result = {
        "index": index,
        "problems": check_pair(pair),
        "digest": digest,
        "ops": pair.baseline.aggregate.ops_executed + pair.variant.aggregate.ops_executed,
        "host_s": host_s,
        "ref_rate": probe["ref_runs"] * REF_ITERATIONS / probe["ref_s"] if probe["ref_runs"] else None,
        "first_op_at": probe["first_op_at"],
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sides": {BASELINE: side_summary(pair.baseline), VARIANT: side_summary(pair.variant)},
        "lifetime_model": {
            "capacity_bytes": config.lifetime_capacity_bytes,
            "endurance_writes": config.lifetime_endurance,
            "wear_efficiency": config.lifetime_efficiency,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(trace_out)
        result["layers"] = {f"{side}.{k}": v for side in SIDES for k, v in tracer.metrics(side).items()}
        result["side_s"] = {side: tracer.side_seconds(side) for side in SIDES}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--launch", type=float, default=None, help="parent's monotonic clock at spawn")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    launch = monotonic() if args.launch is None else args.launch
    import_hybridgc()
    result = run(WORKLOADS[args.workload], args.seed, args.input, args.scale, args.trace_out)
    result["setup_s"] = result["first_op_at"] - launch if result["first_op_at"] is not None else None
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
