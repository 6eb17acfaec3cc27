"""Command line front end.

Exit status: 0 on success, 1 when a simulation run fails (heap
exhaustion or a trace error mid-run), 2 for bad usage or configuration,
a trace file that does not parse (a malformed line, or bytes that are
not UTF-8), or a file that cannot be read or written. ``run`` and ``pair``
open ``--out``, and ``sweep`` checks its points and makes ``--out-dir``,
before any run starts; ``--out`` is emptied only when its report is
written, so a run that raises leaves an existing file unchanged. ``sweep``
writes each point's report, and prints its line, as the point ends.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from .config import Collector, ExperimentConfig
from .errors import ConfigError, SimulatorError, TraceError
from .harness import (
    config_for_archetype,
    emit_report,
    run_baseline_pair,
    run_experiment,
    sweep,
)
from .memory import LifetimeModel, lifetime_years
from .units import parse_size
from .workloads import ARCHETYPES, default_spec, generate, serialize_trace

COLLECTOR_NAMES = [c.value for c in Collector]


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--collector", default="KG-W", help=f"one of {', '.join(COLLECTOR_NAMES)}")
    p.add_argument("--seed", type=int, required=True, help="master seed (required, no default)")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--archetype", choices=sorted(ARCHETYPES), default="nursery-churn")
    src.add_argument("--trace", metavar="PATH", help="replay a trace file instead of generating")
    p.add_argument("--ops", type=int, default=None, help="override the archetype op count")
    p.add_argument("--instances", type=int, default=1)
    p.add_argument("--nursery", type=parse_size, default=None, metavar="SIZE")
    p.add_argument("--budget", type=parse_size, default=None, metavar="SIZE")
    p.add_argument("--cache", type=parse_size, default=None, metavar="SIZE")
    p.add_argument("--quantum", type=int, default=ExperimentConfig.quantum)
    p.add_argument("--warmup", type=float, default=ExperimentConfig.warmup_fraction, metavar="FRACTION")
    p.add_argument("--no-zeroing", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides: dict = {"instances": args.instances, "quantum": args.quantum,
                       "warmup_fraction": args.warmup, "zeroing": not args.no_zeroing}
    if args.nursery is not None:
        overrides["nursery_size"] = args.nursery
    if args.budget is not None:
        overrides["heap_budget"] = args.budget
    if args.cache is not None:
        overrides["cache_capacity"] = args.cache
    if args.trace is not None:
        if args.ops is not None:
            # a replay runs every op of its trace; only a generator takes a count
            raise ConfigError("--ops sets a generated trace's length; it cannot cut --trace")
        return ExperimentConfig(collector=args.collector, seed=args.seed,
                                trace_path=args.trace, **overrides)
    return config_for_archetype(args.archetype, args.collector, args.seed,
                                op_count=args.ops, **overrides)


@contextmanager
def _report_writer(path: str | None, fmt: str):
    """A function that writes one report as ``fmt`` to ``path`` (stdout if None).

    ``path`` is opened before the run, so one that cannot be written costs
    no run, but it is emptied only as the report is written: a run that
    raises leaves a file that was there as it was, and removes one it made.
    """
    if path is None:
        yield lambda report: emit_report(report, fmt, sys.stdout)
        return
    made = not os.path.exists(path)
    fh = open(path, "a", encoding="utf-8")

    def write(report) -> None:
        if fh.seekable():
            fh.seek(0)
            fh.truncate()
        emit_report(report, fmt, fh)

    try:
        with fh:
            yield write
    except BaseException:
        if made:
            os.remove(path)
        raise


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    with _report_writer(args.out, args.format) as write:
        report = run_experiment(config)
        write(report)
    return 1 if report.failed else 0


def _cmd_pair(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    with _report_writer(args.out, args.format) as write:
        pair = run_baseline_pair(config, baseline=args.baseline)
        write(pair.variant)
    return 1 if (pair.baseline.failed or pair.variant.failed) else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    caches = args.cache_sizes or [config.cache_capacity]
    counts = args.instance_counts or [config.instances]
    reports = sweep(config, args.collectors, caches, counts)  # a bad point fails here
    os.makedirs(args.out_dir, exist_ok=True)  # an unwritable directory fails before any point runs
    status = 0
    for label, report in reports:  # each point is written and printed as it ends
        with open(os.path.join(args.out_dir, f"{label}.{args.format}"), "w", encoding="utf-8") as fh:
            emit_report(report, args.format, fh)
        state = "FAILED" if report.failed else "ok"
        print(f"{label}: {state} pcm_write_bytes={report.aggregate.pcm_write_bytes}", flush=True)
        if report.failed:
            status = 1
    return status


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    spec = default_spec(args.archetype, op_count=args.ops, seed=args.seed)
    if args.out is None:
        serialize_trace(generate(spec), sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            serialize_trace(generate(spec), fh)
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    model = LifetimeModel(
        capacity_bytes=parse_size(args.capacity),
        endurance_writes=args.endurance,
        wear_efficiency=args.efficiency,
    )
    years = lifetime_years(args.rate, model)
    print(f"{years:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridgc",
        description="Trace-driven simulator for generational GC on hybrid DRAM/PCM memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and emit a report")
    _add_run_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_pair = sub.add_parser("pair", help="run a variant against a baseline collector")
    _add_run_args(p_pair)
    p_pair.add_argument("--baseline", default="PCM-Only")
    p_pair.set_defaults(func=_cmd_pair)
    for p in (p_run, p_pair):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    # no abbreviations, so a --out, which a sweep does not take, cannot pass for --out-dir
    p_sweep = sub.add_parser("sweep", help="cross product, one report per point", allow_abbrev=False)
    _add_run_args(p_sweep)
    p_sweep.add_argument("--collectors", nargs="+", default=COLLECTOR_NAMES)
    p_sweep.add_argument("--cache-sizes", nargs="+", type=parse_size, default=None, metavar="SIZE")
    p_sweep.add_argument("--instance-counts", nargs="+", type=int, default=None)
    p_sweep.add_argument("--out-dir", default=".")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_gen = sub.add_parser("gen-trace", help="write a synthetic trace to a file or stdout")
    p_gen.add_argument("--archetype", choices=sorted(ARCHETYPES), required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--ops", type=int, default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_gen_trace)

    p_life = sub.add_parser("lifetime", help="device lifetime in years for a PCM write rate")
    p_life.add_argument("rate", type=float, help="sustained PCM write rate in bytes/second")
    p_life.add_argument("--capacity", default=LifetimeModel.capacity_bytes)
    p_life.add_argument("--endurance", type=float, default=LifetimeModel.endurance_writes)
    p_life.add_argument("--efficiency", type=float, default=LifetimeModel.wear_efficiency)
    p_life.set_defaults(func=_cmd_lifetime)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)  # a size option's parse_size raises ConfigError here
        return args.func(args)
    except (ConfigError, TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulatorError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
