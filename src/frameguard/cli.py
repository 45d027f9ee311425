"""Command-line driver: replay trace files and generate workloads.

Exit status: 0 on success, 1 when violations were found and
--fail-on-violation is set, 2 on unusable input, with one `frameguard:`
line of at most LINE_MAX characters that escapes any line end and cuts
any long operand, whatever text echoes it.  With stderr closed or not
writable, unusable input still exits 2, with no line.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext, suppress
from dataclasses import MISSING, fields

from .arena import ArenaExhausted
from .harness import (
    EngineConfig,
    TraceRuntimeError,
    WorkloadParams,
    emit_report,
    format_trace,
    gen_workload,
    parse_trace,
    run_trace,
)
from .messages import cut
from .metadata import EntryConflictError


LINE_MAX = 200      # characters in an exit-2 line, its newline aside


def _line(message: str, tail: str = "") -> str:
    """The `frameguard: ...` line for message then tail.  A character
    that is not printable, such as a line end or separator that argparse
    echoes raw from an operand, shows as its escape (\\n for LF), so the
    line is one line.  Each word past 100 characters is then cut, as
    argparse and OSError echo operands whole; paths that long and per-site
    cuts pass unchanged.  If the line is still past LINE_MAX, as with many
    long operands, the message is cut to fit."""
    if not message.isprintable():
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)
    message = " ".join(cut(word, False) if len(word) > 100 else word
                       for word in message.split(" "))
    room = LINE_MAX - len("frameguard: ") - len(tail)
    if len(message) > room:
        message = message[:room - 3] + "..."
    return f"frameguard: {message}{tail}\n"


def _fail(message: str, tail: str = "") -> int:
    """Write message's exit-2 line to stderr and return 2.  A closed stderr
    or a failed write drops the line: Python 3.10's argparse guards neither."""
    if sys.stderr is not None:
        with suppress(OSError):
            sys.stderr.write(_line(message, tail))
    return 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """One `frameguard: ...` line and exit 2, as for any unusable input."""
        self.exit(_fail(message, f" (see {self.prog} --help)"))


def integer(value: str) -> int:
    return int(value, 0)


def _kinds(value: str) -> tuple[str, ...]:
    return tuple(k for k in value.split(",") if k)


def _defaults(cls) -> dict:
    """cls's field defaults, for set_defaults; each option's dest is the field it sets."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _build(cls, args: argparse.Namespace):
    """cls from the parsed options whose dests are its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frameguard",
        description="Frame-tagged pointer checking over allocation/access traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a trace file and report verdicts")
    run.add_argument("trace", help="trace file path, or - for stdin")
    run.add_argument("--json", action="store_true", help="emit the JSON report")
    run.add_argument("--arena-base", type=integer)
    run.add_argument("--arena-size", type=integer)
    run.add_argument("--pad", dest="pad_bytes", type=integer,
                     help="fake padding bytes used when framing allocations")
    run.add_argument("--arith-checks", action="store_true",
                     help="enable frame-escape checks at ptr_add")
    run.add_argument("--fail-on-violation", action="store_true",
                     help="exit nonzero when any violation was detected")
    run.add_argument("--jitter", dest="placement_jitter", type=integer,
                     help="max random gap between objects, in 16-byte units")
    run.add_argument("--seed", dest="placement_seed", type=integer,
                     help="placement seed used when --jitter is set")
    run.set_defaults(func=_cmd_run, **_defaults(EngineConfig))

    gen = sub.add_parser("gen", help="generate a synthetic workload trace")
    gen.add_argument("--seed", type=integer, required=True)
    gen.add_argument("--objects", type=integer, required=True)
    gen.add_argument("--faults", dest="fault_rate", type=float,
                     help="per-access probability of an injected fault")
    gen.add_argument("--fault-kinds", type=_kinds,
                     help="comma list: overflow,underflow,use_after_free,double_free")
    gen.add_argument("--sizes", dest="size_dist",
                     help="fixed:N | uniform:LO:HI | loguniform:LO:HI")
    gen.add_argument("--accesses", dest="accesses_per_object", type=integer,
                     help="accesses per object")
    gen.add_argument("--edge-probe", action="store_true",
                     help="add one-past-end and one-before-base stores per object")
    gen.add_argument("--arrays", dest="array_fraction", type=float,
                     help="fraction of objects allocated as element arrays")
    gen.add_argument("--free-fraction", type=float,
                     help="fraction of objects freed at the end of their sequence")
    gen.add_argument("--out", help="trace output file (default stdout)")
    gen.add_argument("--manifest", help="write the expected-violation manifest JSON here")
    gen.set_defaults(func=_cmd_gen, **_defaults(WorkloadParams))
    return parser


def _std(name: str):
    """sys.stdin or sys.stdout, which Python sets to None when that
    descriptor was closed at start: unusable input."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(f"standard {'input' if name == 'stdin' else 'output'} is closed")
    return stream


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.trace, "rb") if args.trace != "-" else nullcontext(_std("stdin").buffer) as fh:
        text = fh.read().decode("utf-8")    # strict UTF-8 from stdin too, whatever the locale
    report = run_trace(parse_trace(text), _build(EngineConfig, args))
    _std("stdout").write(emit_report(report, "json" if args.json else "text"))
    return 1 if args.fail_on_violation and report.violations else 0


def _cmd_gen(args: argparse.Namespace) -> int:
    events, manifest = gen_workload(args.seed, _build(WorkloadParams, args))
    text = format_trace(events)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _std("stdout").write(text)
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
    except (TraceRuntimeError, ArenaExhausted, EntryConflictError, ValueError, OSError) as exc:
        return _fail(str(exc))
