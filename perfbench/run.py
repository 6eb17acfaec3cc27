"""hybridgc benchmark: KG-W vs PCM-Only pairs, timed or traced.

Usage, from the checkout root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` runs pairs of the workload one after another, each in a
fresh single-threaded process, until ``--seconds`` is used up (at least
one full cycle over the workload's inputs), checks every output and
prints the end-to-end metrics. ``--trace 1`` runs input 0 once untraced
and once traced and prints the per-layer metrics of both sides plus the
tracing overhead. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit status is 1 when any output check failed and 2 when the simulator
sources are missing. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

from pair import REF_RATE, input_seed, monotonic
from suite import (
    BASELINE,
    DEFAULT_SEED,
    HELD_OUT_SEED,
    MIB,
    OUT_DIR,
    ROOT,
    SIDES,
    SRC,
    VARIANT,
    WORKLOADS,
    Workload,
    trace_path,
)
from tracer import LAYER_METRICS, layer_unit

# name -> unit. Every one is printed; ``GATED`` are the ones in the JSON result.
END_TO_END = {
    "sim_ops_per_s": "ops/s",
    "sim_ops_per_ref_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "failed_run_share": "ratio",
    "pcm_write_mib": "MiB",
    "pcm_write_reduction": "ratio",
    "pcm_lifetime_years": "years",
    "sim_s": "s",
}
# Three printed metrics are not gated. sim_ops_per_s follows the host's
# speed drift (tens of percent over seconds on a shared machine);
# sim_ops_per_ref_s is the same throughput rescaled to a reference speed
# and is gated in its place. failed_run_share is 0 on every healthy run
# and pcm_write_mib is 0 on churn-replay-4x (KG-W keeps every write in
# DRAM there), and a gated metric must never read 0: the result's
# ``failed`` count carries the first, pcm_write_reduction and
# pcm_lifetime_years carry the second.
GATED = tuple(name for name in END_TO_END if name not in ("sim_ops_per_s", "failed_run_share", "pcm_write_mib"))
TRACE_METRICS = {
    "trace.untraced_sim_ops_per_s": "ops/s",
    "trace.traced_sim_ops_per_s": "ops/s",
    "trace.overhead": "ratio",
}

RUN_LIMIT_S = 170.0  # every child is killed so that a run ends within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def code_id(workload: Workload) -> str:
    """Digest of the simulator sources and the workload's shape; stored report digests are keyed by it."""
    h = hashlib.sha256(repr(workload).encode())
    for path in sorted(glob.glob(os.path.join(SRC, "hybridgc", "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, workload: Workload, seed: int, scale: float) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.started = monotonic()
        os.makedirs(OUT_DIR, exist_ok=True)

    def _remaining(self) -> float:
        return max(1.0, RUN_LIMIT_S - (monotonic() - self.started))

    def _spawn(self, argv: list[str]) -> subprocess.CompletedProcess | str:
        try:
            return subprocess.run(
                argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=self._remaining()
            )
        except subprocess.TimeoutExpired:
            return f"{argv[1:3]} killed after the run's time limit"

    def record_trace(self, index: int) -> tuple[float, str | None]:
        """``hybridgc gen-trace`` for a replay workload; returns (seconds, problem)."""
        w = self.workload
        argv = [
            sys.executable, "-m", "hybridgc.cli", "gen-trace",
            "--archetype", w.archetype,
            "--seed", str(input_seed(self.seed, index)),
            "--ops", str(w.ops(self.scale)),
            "--out", trace_path(w, self.seed, index),
        ]  # fmt: skip
        t0 = monotonic()
        proc = self._spawn(argv)
        elapsed = monotonic() - t0
        if isinstance(proc, str):
            return elapsed, proc
        if proc.returncode != 0:
            return elapsed, f"gen-trace exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return elapsed, None

    def pair(self, index: int, trace_out: str | None = None) -> dict:
        """One pair process (after recording its trace, for replay workloads)."""
        setup = 0.0
        if self.workload.replay:
            setup, problem = self.record_trace(index)
            if problem:
                return {"index": index, "problems": [problem]}
        argv = [
            sys.executable, os.path.join(ROOT, "perfbench", "pair.py"),
            "--workload", self.workload.name,
            "--seed", str(self.seed),
            "--input", str(index),
            "--scale", repr(self.scale),
        ]  # fmt: skip
        if trace_out is not None:
            argv += ["--trace-out", trace_out]
        argv += ["--launch", repr(monotonic())]
        proc = self._spawn(argv)
        if isinstance(proc, str):
            return {"index": index, "problems": [proc]}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"index": index, "problems": [f"pair exited {proc.returncode}: {proc.stderr.strip()[-800:]}"]}
        sample = json.loads(lines[-1])
        if sample["setup_s"] is None:
            sample["problems"].append("no simulated op was executed")
        else:
            sample["setup_s"] += setup
        return sample

    def check_digests(self, samples: list[dict]) -> None:
        """Reports of one input must be identical in every repeat and every run.

        A sample whose digest differs from the first one recorded for its
        input gets a problem added.
        """
        store_path = os.path.join(OUT_DIR, "digests.json")
        try:
            with open(store_path, encoding="utf-8") as fh:
                store = json.load(fh)
        except (OSError, ValueError):
            store = {}
        prefix = f"{code_id(self.workload)}/{self.workload.name}/{self.seed}/{self.scale!r}"
        for sample in samples:
            if "digest" not in sample:
                continue
            seen = store.setdefault(f"{prefix}/{sample['index']}", sample["digest"])
            if seen != sample["digest"]:
                sample["problems"].append(f"report digest {sample['digest'][:12]} != {seen[:12]} recorded before")
        tmp = store_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(tmp, store_path)

    def cleanup(self) -> None:
        if self.workload.replay:
            for index in range(self.workload.inputs):
                path = os.path.join(ROOT, trace_path(self.workload, self.seed, index))
                if os.path.exists(path):
                    os.remove(path)


def pooled_sim_metrics(cycle: list[dict]) -> dict[str, float]:
    """Simulated metrics pooled over one cycle of inputs (exact for one input)."""
    from hybridgc.memory import LifetimeModel, lifetime_years

    n = len(cycle)
    var_pcm = sum(s["sides"][VARIANT]["pcm_write_bytes"] for s in cycle)
    base_pcm = sum(s["sides"][BASELINE]["pcm_write_bytes"] for s in cycle)
    var_sim = sum(s["sides"][VARIANT]["sim_seconds"] for s in cycle)
    model = LifetimeModel(**cycle[0]["lifetime_model"])
    return {
        "pcm_write_mib": var_pcm / n / MIB,
        "pcm_write_reduction": 1.0 - var_pcm / base_pcm,
        "pcm_lifetime_years": lifetime_years(var_pcm / var_sim, model),
        "sim_s": var_sim / n,
    }


def print_collections(samples: list[dict]) -> None:
    """Collection counts of both sides per input, and the open baseline defect when it shows."""
    shown: dict[int, dict] = {}
    for s in samples:
        if "sides" in s:
            shown.setdefault(s["index"], s["sides"])
    for index, sides in sorted(shown.items()):
        parts = [
            f"{side} minor={sides[side]['minor']} observer={sides[side]['observer']} major={sides[side]['major']}"
            for side in SIDES
        ]
        print(f"collections input {index}: " + " | ".join(parts))
    if any(
        sides[BASELINE]["minor"] + sides[BASELINE]["major"] == 0 and sides[VARIANT]["minor"] + sides[VARIANT]["major"] > 0
        for sides in shown.values()
    ):
        print(
            f"note: {BASELINE} ran with no collection while {VARIANT} collected: large objects go straight to"
            " the PCM large-object space and the heap budget is only checked after a minor collection, so the"
            " reduction is measured against a baseline exempt from its budget (open defect, see perfbench/README.md)"
        )


def report_failures(samples: list[dict]) -> int:
    """Print every problem to stderr; returns the number of failed pair runs."""
    for s in samples:
        for problem in s["problems"]:
            print(f"FAIL input {s['index']}: {problem}", file=sys.stderr)
    return sum(bool(s["problems"]) for s in samples)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def timed_run(runner: Runner, seconds: float) -> int:
    w = runner.workload
    samples: list[dict] = []
    longest = 0.0
    while True:
        count = len(samples)
        if count >= w.inputs and monotonic() - runner.started + longest > seconds:
            break
        t0 = monotonic()
        samples.append(runner.pair(count % w.inputs))
        longest = max(longest, monotonic() - t0)
        if samples[-1]["problems"]:
            break
    runner.cleanup()
    runner.check_digests(samples)
    failed = report_failures(samples)
    ok = [s for s in samples if not s["problems"]]
    cycles = [samples[i : i + w.inputs] for i in range(0, len(samples) - w.inputs + 1, w.inputs)]
    cycles = [c for c in cycles if all(not s["problems"] for s in c)]

    values: dict[str, tuple[float, int]] = {"failed_run_share": (failed / len(samples), len(samples))}
    if ok:
        values["setup_s"] = (statistics.median(s["setup_s"] for s in ok), len(ok))
        values["peak_rss_mib"] = (statistics.median(s["rss_mib"] for s in ok), len(ok))
    if cycles:
        rates = [sum(s["ops"] for s in c) / sum(s["host_s"] for s in c) for c in cycles]
        values["sim_ops_per_s"] = (statistics.median(rates), len(cycles))
        ref_rates = [sum(s["ops"] for s in c) / sum(s["host_s"] * s["ref_rate"] / REF_RATE for s in c) for c in cycles]
        values["sim_ops_per_ref_s"] = (statistics.median(ref_rates), len(cycles))
        for name, value in pooled_sim_metrics(cycles[0]).items():
            values[name] = (value, len(cycles))

    print(
        f"workload {w.name} seed {runner.seed}: {len(samples)} pair runs over {w.inputs} input(s),"
        f" {monotonic() - runner.started:.1f} s"
    )
    print_collections(samples)
    print(f"{'metric':<22} {'unit':<6} {'median':>16} {'n':>4}")
    for name, unit in END_TO_END.items():
        if name in values:
            value, n = values[name]
            print(f"{name:<22} {unit:<6} {value:>16.6g} {n:>4}")
        else:
            print(f"{name:<22} {unit:<6} {'missing':>16} {0:>4}")

    correct = failed == 0 and all(name in values for name in END_TO_END)
    metrics = {name: (values[name][0], END_TO_END[name]) for name in GATED if name in values}
    print(result_line(correct, len(samples), failed, metrics))
    return 0 if correct else 1


def traced_run(runner: Runner) -> int:
    spans_path = os.path.join(OUT_DIR, f"spans-{runner.workload.name}-s{runner.seed}.json")
    plain = runner.pair(0)
    traced = runner.pair(0, trace_out=spans_path)
    runner.cleanup()
    samples = [plain, traced]
    runner.check_digests(samples)
    failed = report_failures(samples)
    if failed:
        print(result_line(False, len(samples), failed, {}))
        return 1

    layers = traced["layers"]
    print(f"workload {runner.workload.name} seed {runner.seed}: traced input 0, spans in {os.path.relpath(spans_path, ROOT)}")
    print_collections(samples)
    print(f"{'layer metric':<30} {'unit':<6}" + "".join(f" {side:>14} {'share':>6}" for side in SIDES))
    for name in LAYER_METRICS:
        unit = layer_unit(name)
        row = f"{name:<30} {unit:<6}"
        for side in SIDES:
            value = layers[f"{side}.{name}"]
            share = f"{value / traced['side_s'][side]:6.1%}" if unit == "s" else ""
            row += f" {value:>14.6g} {share:>6}"
        print(row)
    untraced_rate = plain["ops"] / plain["host_s"]
    traced_rate = traced["ops"] / traced["host_s"]
    trace_values = {
        "trace.untraced_sim_ops_per_s": untraced_rate,
        "trace.traced_sim_ops_per_s": traced_rate,
        "trace.overhead": untraced_rate / traced_rate,
    }
    for name, value in trace_values.items():
        print(f"{name:<30} {TRACE_METRICS[name]:<6} {value:>14.6g}")

    metrics = {name: (value, layer_unit(name.split(".", 1)[1])) for name, value in layers.items()}
    metrics.update({name: (value, TRACE_METRICS[name]) for name, value in trace_values.items()})
    print(result_line(True, len(samples), 0, metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hybridgc benchmark: KG-W vs PCM-Only pairs, timed or traced.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"workload seed; check claimed gains on {HELD_OUT_SEED} too"
    )
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time of a timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="op-count multiplier (the self-test uses a tiny one)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hybridgc", "__init__.py")):
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    runner = Runner(WORKLOADS[args.workload], args.seed, args.scale)
    if args.trace:
        return traced_run(runner)
    return timed_run(runner, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
