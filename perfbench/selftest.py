"""Self-test of the benchmark at tiny op counts.

Usage, from the checkout root:

    python3 perfbench/selftest.py

Runs every workload once timed and once traced at 15% of its op count
(every instance still runs past its first 10,000-op quantum), and checks
that every end-to-end metric prints with its unit, that every per-layer
metric appears for both sides, that the output checks pass, that they catch broken reports, that a failed check makes
the run exit nonzero, and that the benchmark refuses to run without the
simulator sources. Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import pair as pair_worker
import run as bench
from suite import DEFAULT_SEED, OUT_DIR, ROOT, SIDES, SRC, WORKLOADS
from tracer import LAYER_METRICS, layer_unit

SCALE = 0.15
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run_bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_declaration(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == {name: bench.END_TO_END[name] for name in bench.GATED}, "BENCHMARK.json end_to_end matches run.py")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want = {f"{side}.{name}": layer_unit(name) for side in SIDES for name in LAYER_METRICS}
    want.update(bench.TRACE_METRICS)
    expect(layers == want, f"BENCHMARK.json per_layer holds the {len(want)} traced metrics")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads match suite.py")


def check_timed(name: str, spec: dict) -> None:
    code, lines = run_bench("--workload", name, "--seed", str(DEFAULT_SEED), "--seconds", "1", "--scale", str(SCALE))
    result = json.loads(lines[-1]) if lines else {}
    expect(code == 0 and result.get("correct") is True and result.get("failed") == 0, f"{name}: timed run passes its checks")
    table = {line.split()[0]: line.split()[1] for line in lines[:-1] if len(line.split()) >= 4}
    expect(all(table.get(n) == u for n, u in bench.END_TO_END.items()), f"{name}: every end-to-end metric prints with its unit")
    got = {n: m["unit"] for n, m in result.get("metrics", {}).items()}
    expect(got == {m["name"]: m["unit"] for m in spec["end_to_end"]}, f"{name}: result holds every gated metric")
    expect(all(m["value"] != 0 for m in result.get("metrics", {}).values()), f"{name}: no gated metric reads 0")


def check_traced(name: str, spec: dict) -> None:
    code, lines = run_bench("--workload", name, "--seed", str(DEFAULT_SEED), "--trace", "1", "--scale", str(SCALE))
    result = json.loads(lines[-1]) if lines else {}
    expect(code == 0 and result.get("correct") is True, f"{name}: traced run passes its checks and digests match")
    got = {n: m["unit"] for n, m in result.get("metrics", {}).items()}
    expect(got == {m["name"]: m["unit"] for m in spec["per_layer"]}, f"{name}: every per-layer metric for both sides")
    metrics = result.get("metrics", {})
    parse = [metrics.get(f"{side}.workloads.parse.ops", {}).get("value", 0) for side in SIDES]
    expect(all(parse) == WORKLOADS[name].replay, f"{name}: workloads.parse is nonzero only on the replay workload")


def check_output_checks() -> None:
    sys.path.insert(0, SRC)
    from hybridgc import harness

    config = pair_worker.make_config(WORKLOADS["mature-smallcache"], DEFAULT_SEED, 0, SCALE)
    good = harness.run_baseline_pair(config)
    expect(pair_worker.check_pair(good) == [], "output checks accept a correct pair")
    failed = dataclasses.replace(good, variant=dataclasses.replace(good.variant, failed=True))
    expect(bool(pair_worker.check_pair(failed)), "output checks catch a failed report")
    agg = dataclasses.replace(good.variant.aggregate, pcm_write_bytes=good.variant.aggregate.pcm_write_bytes + 64)
    leaked = dataclasses.replace(good, variant=dataclasses.replace(good.variant, aggregate=agg))
    problems = pair_worker.check_pair(leaked)
    expect(len(problems) == 2, "output checks catch broken write conservation and row sums")

    class Broken(bench.Runner):
        def pair(self, index, trace_out=None):
            return {"index": index, "problems": ["injected failure"]}

    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = bench.timed_run(Broken(WORKLOADS["mature-smallcache"], DEFAULT_SEED, SCALE), 1.0)
    result = json.loads(out.getvalue().splitlines()[-1])
    expect(code == 1 and result["correct"] is False and result["failed"] == 1, "a failed check makes the run exit 1")


def check_bare_directory() -> None:
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for entry in os.listdir(os.path.join(ROOT, "perfbench")):
        if entry.endswith((".py", ".md")):
            shutil.copy(os.path.join(ROOT, "perfbench", entry), os.path.join(bare, "perfbench"))
    code, lines = run_bench("--workload", "large-graph", "--seed", "1", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and not any(line.startswith("{") for line in lines), "without src/ the run fails and prints no result")


def main() -> int:
    spec = declared()
    check_declaration(spec)
    check_output_checks()
    check_bare_directory()
    for name in WORKLOADS:
        check_timed(name, spec)
        check_traced(name, spec)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
