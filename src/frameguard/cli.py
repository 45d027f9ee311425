"""Command-line driver: replay trace files and generate workloads.

Environment variables with the FRAMEGUARD_ prefix supply defaults for
the run flags (FRAMEGUARD_ARENA_SIZE, FRAMEGUARD_ARENA_BASE,
FRAMEGUARD_PAD, FRAMEGUARD_ARITH_CHECKS, FRAMEGUARD_FAIL_ON_VIOLATION,
FRAMEGUARD_JITTER, FRAMEGUARD_SEED).

Exit status: 0 on success, 1 when violations were found and
--fail-on-violation is set, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arena import DEFAULT_ARENA_BASE, DEFAULT_ARENA_SIZE, ArenaExhausted
from .harness import (
    EngineConfig,
    TraceRuntimeError,
    TraceSyntaxError,
    WorkloadParams,
    emit_report,
    format_trace,
    gen_workload,
    parse_trace,
    run_trace,
)

_ENV_PREFIX = "FRAMEGUARD_"


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(_ENV_PREFIX + name)
    return int(raw, 0) if raw else fallback


def _env_flag(name: str) -> bool:
    raw = os.environ.get(_ENV_PREFIX + name, "")
    return raw.lower() in ("1", "true", "yes", "on")


def _auto_int(value: str) -> int:
    return int(value, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frameguard",
        description="Frame-tagged pointer checking over allocation/access traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a trace file and report verdicts")
    run.add_argument("trace", help="trace file path, or - for stdin")
    run.add_argument("--json", action="store_true", help="emit the JSON report")
    run.add_argument("--arena-base", type=_auto_int,
                     default=_env_int("ARENA_BASE", DEFAULT_ARENA_BASE))
    run.add_argument("--arena-size", type=_auto_int,
                     default=_env_int("ARENA_SIZE", DEFAULT_ARENA_SIZE))
    run.add_argument("--pad", type=_auto_int, default=_env_int("PAD", 1),
                     help="fake padding bytes used when framing allocations")
    run.add_argument("--arith-checks", action="store_true",
                     default=_env_flag("ARITH_CHECKS"),
                     help="enable frame-escape checks at ptr_add")
    run.add_argument("--fail-on-violation", action="store_true",
                     default=_env_flag("FAIL_ON_VIOLATION"),
                     help="exit nonzero when any violation was detected")
    run.add_argument("--jitter", type=_auto_int, default=_env_int("JITTER", 0),
                     help="max random gap between objects, in 16-byte units")
    run.add_argument("--seed", type=_auto_int, default=_env_int("SEED", 0),
                     help="placement seed used when --jitter is set")
    run.set_defaults(func=_cmd_run)

    gen = sub.add_parser("gen", help="generate a synthetic workload trace")
    gen.add_argument("--seed", type=_auto_int, required=True)
    gen.add_argument("--objects", type=_auto_int, required=True)
    gen.add_argument("--faults", type=float, default=0.0,
                     help="per-access probability of an injected fault")
    gen.add_argument("--fault-kinds", default="overflow,underflow",
                     help="comma list: overflow,underflow,use_after_free,double_free")
    gen.add_argument("--sizes", default="uniform:16:4096",
                     help="fixed:N | uniform:LO:HI | loguniform:LO:HI")
    gen.add_argument("--accesses", type=_auto_int, default=4,
                     help="accesses per object")
    gen.add_argument("--edge-probe", action="store_true",
                     help="add one-past-end and one-before-base stores per object")
    gen.add_argument("--arrays", type=float, default=0.0,
                     help="fraction of objects allocated as element arrays")
    gen.add_argument("--free-fraction", type=float, default=0.0,
                     help="fraction of objects freed at the end of their sequence")
    gen.add_argument("--out", help="trace output file (default stdout)")
    gen.add_argument("--manifest", help="write the expected-violation manifest JSON here")
    gen.set_defaults(func=_cmd_gen)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.trace == "-":
        text = sys.stdin.read()
    else:
        with open(args.trace, "r", encoding="utf-8") as fh:
            text = fh.read()
    events = parse_trace(text)
    config = EngineConfig(
        arena_base=args.arena_base,
        arena_size=args.arena_size,
        pad_bytes=args.pad,
        arith_checks=args.arith_checks,
        fail_on_violation=args.fail_on_violation,
        placement_jitter=args.jitter,
        placement_seed=args.seed,
    )
    report = run_trace(events, config)
    sys.stdout.write(emit_report(report, "json" if args.json else "text"))
    return report.exit_status


def _cmd_gen(args: argparse.Namespace) -> int:
    params = WorkloadParams(
        objects=args.objects,
        size_dist=args.sizes,
        accesses_per_object=args.accesses,
        fault_rate=args.faults,
        fault_kinds=tuple(k for k in args.fault_kinds.split(",") if k),
        edge_probe=args.edge_probe,
        array_fraction=args.arrays,
        free_fraction=args.free_fraction,
    )
    events, manifest = gen_workload(args.seed, params)
    text = format_trace(events)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.manifest:
        payload = {
            "seed": args.seed,
            "fault_count": len(manifest),
            "faults": [{"event": i, "kind": manifest[i]} for i in sorted(manifest)],
        }
        with open(args.manifest, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TraceSyntaxError, TraceRuntimeError, ArenaExhausted, ValueError, OSError) as exc:
        print(f"frameguard: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
