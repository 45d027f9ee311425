"""Trace replay harness: parse or generate event streams, drive the
arena and checker, and report verdicts and space overhead.

Trace grammar, one event per line, whitespace separated, `#` starts a
comment:

    alloc <id> <size> [type_id]
    alloc_array <id> <count> <elem_size>
    realloc <id> <new_size>
    free <id>
    load <id> <offset> <access_size>
    store <id> <offset> <access_size>
    ptr_add <id> <new_offset>
    memcpy <dst> <src> <n>
    strcpy <dst> <src> <srclen>
    strncpy <dst> <src> <n>
    scope_begin
    scope_end

Offsets are relative to the object base and may be negative or past the
end; probing such addresses is the point.  Integers accept 0x prefixes.
Ids must be introduced by alloc or alloc_array before any other use.
Each load/store composes a pointer at base+offset from the object's
canonical tagged pointer; ptr_add moves a per-id cursor pointer and the
copy/string events consume that cursor, so arithmetic sequences can be
expressed.  Allocations inside scope_begin/scope_end belong to the
innermost open scope and are released at its scope_end, the way frame
entries of non-static locals are vacated in a function epilogue.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .arena import DEFAULT_ARENA_BASE, DEFAULT_ARENA_SIZE, Arena
from .checker import AccessRequest, Checker
from .frame_math import ADDRESS_MASK
from .tagging import rebase
from .verdicts import Verdict, VerdictKind

MAX_WORKLOAD_OBJECT_SIZE = 1 << 20


class TraceSyntaxError(ValueError):
    """Malformed trace input; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


@dataclass(frozen=True)
class TraceEvent:
    op: str
    id: str = ""
    id2: str = ""
    args: tuple[int, ...] = ()


@dataclass(frozen=True)
class EngineConfig:
    arena_base: int = DEFAULT_ARENA_BASE
    arena_size: int = DEFAULT_ARENA_SIZE
    pad_bytes: int = 1
    arith_checks: bool = False        # frame-escape checks at ptr_add
    fail_on_violation: bool = False
    placement_jitter: int = 0         # max random inter-object gap, 16-byte units
    placement_seed: int = 0


@dataclass
class RunReport:
    """Aggregated outcome of one trace run.

    Overhead counts are cumulative over the run: one header per
    allocation performed, the payload bytes requested, and the
    footprint of division arrays actually touched.  ratio is
    (header + table + payload) / payload, or 1.0 for an empty run.
    """

    event_count: int
    verdicts: dict[str, int]
    checks: dict[str, int]
    overhead: dict[str, object]
    event_log: list[Verdict | None]
    exit_status: int = 0
    live_stats: dict[str, int] = field(default_factory=dict)

    @property
    def violations(self) -> list[tuple[int, str]]:
        return [
            (i, v.kind.value)
            for i, v in enumerate(self.event_log)
            if v is not None and v.is_violation
        ]

    @property
    def violation_total(self) -> int:
        return sum(1 for v in self.event_log if v is not None and v.is_violation)


# -- parsing -----------------------------------------------------------

_ARITY = {
    "alloc": (2, 3),
    "alloc_array": (3, 3),
    "realloc": (2, 2),
    "free": (1, 1),
    "load": (3, 3),
    "store": (3, 3),
    "ptr_add": (2, 2),
    "memcpy": (3, 3),
    "strcpy": (3, 3),
    "strncpy": (3, 3),
    "scope_begin": (0, 0),
    "scope_end": (0, 0),
}


def _int(tok: str, line_no: int, what: str) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise TraceSyntaxError(line_no, f"{what} {tok!r} is not an integer") from None


def parse_trace(source: str | Iterable[str]) -> list[TraceEvent]:
    """Parse trace text into events, validating ids and scope balance."""
    lines = source.splitlines() if isinstance(source, str) else source
    events: list[TraceEvent] = []
    defined: set[str] = set()
    scope_depth = 0
    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        op, args = toks[0], toks[1:]
        if op not in _ARITY:
            raise TraceSyntaxError(line_no, f"unknown operation {op!r}")
        lo, hi = _ARITY[op]
        if not lo <= len(args) <= hi:
            raise TraceSyntaxError(line_no, f"{op} takes {lo}..{hi} arguments, got {len(args)}")

        if op in ("alloc", "alloc_array"):
            name = args[0]
            nums = [_int(a, line_no, "argument") for a in args[1:]]
            if op == "alloc":
                if nums[0] < 1:
                    raise TraceSyntaxError(line_no, "allocation size must be at least 1")
                if len(nums) == 1:
                    nums.append(0)
            else:
                if nums[0] < 1 or nums[1] < 1:
                    raise TraceSyntaxError(line_no, "count and element size must be at least 1")
            defined.add(name)
            events.append(TraceEvent(op, id=name, args=tuple(nums)))
        elif op in ("realloc", "free", "load", "store", "ptr_add"):
            name = args[0]
            if name not in defined:
                raise TraceSyntaxError(line_no, f"undefined id {name!r}")
            nums = tuple(_int(a, line_no, "argument") for a in args[1:])
            if op == "realloc" and nums[0] < 1:
                raise TraceSyntaxError(line_no, "allocation size must be at least 1")
            if op in ("load", "store") and nums[1] < 1:
                raise TraceSyntaxError(line_no, "access size must be at least 1")
            events.append(TraceEvent(op, id=name, args=nums))
        elif op in ("memcpy", "strcpy", "strncpy"):
            dst, src = args[0], args[1]
            for name in (dst, src):
                if name not in defined:
                    raise TraceSyntaxError(line_no, f"undefined id {name!r}")
            n = _int(args[2], line_no, "byte count")
            if n < 0:
                raise TraceSyntaxError(line_no, "byte count must be non-negative")
            events.append(TraceEvent(op, id=dst, id2=src, args=(n,)))
        elif op == "scope_begin":
            scope_depth += 1
            events.append(TraceEvent(op))
        else:  # scope_end
            if scope_depth == 0:
                raise TraceSyntaxError(line_no, "scope_end without matching scope_begin")
            scope_depth -= 1
            events.append(TraceEvent(op))
    return events


def format_trace(events: Sequence[TraceEvent]) -> str:
    """Serialize events back to trace text (inverse of parse_trace)."""
    lines = []
    for ev in events:
        if ev.op == "alloc":
            size, type_id = ev.args
            lines.append(f"alloc {ev.id} {size}" + (f" {type_id}" if type_id else ""))
        elif ev.op in ("alloc_array", "load", "store"):
            lines.append(f"{ev.op} {ev.id} {ev.args[0]} {ev.args[1]}")
        elif ev.op in ("realloc", "ptr_add"):
            lines.append(f"{ev.op} {ev.id} {ev.args[0]}")
        elif ev.op == "free":
            lines.append(f"free {ev.id}")
        elif ev.op in ("memcpy", "strcpy", "strncpy"):
            lines.append(f"{ev.op} {ev.id} {ev.id2} {ev.args[0]}")
        else:
            lines.append(ev.op)
    return "\n".join(lines) + "\n"


# -- execution ---------------------------------------------------------

class TraceRuntimeError(RuntimeError):
    """A trace event could not be executed (unknown id, bad address)."""


def run_trace(events: Sequence[TraceEvent], config: EngineConfig | None = None) -> RunReport:
    """Execute events in order; violations are data, never exceptions."""
    config = config or EngineConfig()
    rng = random.Random(config.placement_seed) if config.placement_jitter else None
    arena = Arena(
        base=config.arena_base,
        size=config.arena_size,
        pad_bytes=config.pad_bytes,
        placement_jitter=config.placement_jitter,
        rng=rng,
    )
    checker = Checker(arena)
    bindings: dict[str, object] = {}
    cursors: dict[str, int] = {}
    scopes: list[list] = []
    log: list[Verdict | None] = []

    def _record(name: str):
        try:
            return bindings[name]
        except KeyError:
            raise TraceRuntimeError(f"id {name!r} used before allocation") from None

    def _rebased(name: str, offset: int) -> int:
        record = _record(name)
        addr = record.obj_base + offset
        if addr < 0 or addr > ADDRESS_MASK:
            raise TraceRuntimeError(
                f"offset {offset} moves {name!r} outside the 48-bit space"
            )
        return rebase(record.tagged, addr)

    for ev in events:
        verdict: Verdict | None = None
        op = ev.op
        if op in ("load", "store"):
            offset, access_size = ev.args
            tagged = _rebased(ev.id, offset)
            verdict, _ = checker.check_access(
                AccessRequest(tagged, access_size, is_store=(op == "store"))
            )
        elif op in ("alloc", "alloc_array"):
            scope_id = len(scopes) - 1 if scopes else None
            if op == "alloc":
                record = arena.alloc(ev.args[0], type_id=ev.args[1], scope_id=scope_id)
            else:
                record = arena.alloc_array(ev.args[0], ev.args[1], scope_id=scope_id)
            bindings[ev.id] = record
            cursors[ev.id] = record.tagged
            if scopes:
                scopes[-1].append(record)
        elif op == "free":
            verdict = checker.check_free(_record(ev.id).tagged)
        elif op == "realloc":
            record = _record(ev.id)
            verdict, new_record = arena.realloc(record.tagged, ev.args[0])
            if new_record is not None:
                bindings[ev.id] = new_record
                cursors[ev.id] = new_record.tagged
                sid = new_record.scope_id
                if sid is not None and sid < len(scopes):
                    scopes[sid].append(new_record)
        elif op == "ptr_add":
            new_tagged = _rebased(ev.id, ev.args[0])
            if config.arith_checks:
                verdict = checker.check_arith(cursors[ev.id], new_tagged)
            cursors[ev.id] = new_tagged
        elif op in ("memcpy", "strcpy", "strncpy"):
            _record(ev.id), _record(ev.id2)
            check = {
                "memcpy": checker.check_memcpy,
                "strcpy": checker.check_strcpy,
                "strncpy": checker.check_strncpy,
            }[op]
            verdict = check(cursors[ev.id], cursors[ev.id2], ev.args[0])
        elif op == "scope_begin":
            scopes.append([])
        elif op == "scope_end":
            if not scopes:
                raise TraceRuntimeError("scope_end without matching scope_begin")
            arena.scope_end(scopes.pop())
        else:
            raise TraceRuntimeError(f"unknown operation {op!r}")
        log.append(verdict)

    counts = {kind.value: 0 for kind in VerdictKind}
    for v in log:
        if v is not None:
            counts[v.kind.value] += 1

    header_bytes = 16 * arena.total_allocations
    payload_bytes = arena.total_payload_bytes
    table_bytes = arena.table.touched_bytes
    ratio = (header_bytes + table_bytes + payload_bytes) / payload_bytes if payload_bytes else 1.0
    stats = arena.stats()
    violation_count = sum(counts[k.value] for k in VerdictKind
                          if k not in (VerdictKind.OK, VerdictKind.UNTRACKED))
    return RunReport(
        event_count=len(events),
        verdicts=counts,
        checks=checker.counters.as_dict(),
        overhead={
            "header_bytes": header_bytes,
            "table_bytes": table_bytes,
            "payload_bytes": payload_bytes,
            "ratio": ratio,
        },
        event_log=log,
        exit_status=1 if (violation_count and config.fail_on_violation) else 0,
        live_stats={
            "live_allocations": stats.live_allocations,
            "live_header_bytes": stats.live_header_bytes,
            "live_payload_bytes": stats.live_payload_bytes,
            "table_reserved_bytes": stats.table_reserved_bytes,
            "overhead_bytes": stats.overhead_bytes,
            "cursor_used_bytes": stats.cursor_used_bytes,
        },
    )


# -- workload generation -------------------------------------------------

SPATIAL_FAULT_KINDS = ("overflow", "underflow")
TEMPORAL_FAULT_KINDS = ("use_after_free", "double_free")


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs for synthetic traces.

    size_dist accepts "fixed:N", "uniform:LO:HI" or "loguniform:LO:HI"
    with 1 <= LO <= HI <= 2**20.  fault_rate is the per-access
    probability of replacing an in-bounds access with a fault drawn
    from fault_kinds.  Objects chosen for a use_after_free fault are
    forced big-framed (at least 2**16 bytes) so the vacated table entry
    is what detects them.  edge_probe adds, for every object, one
    store one byte past the end and one store one byte before the base.
    """

    objects: int
    size_dist: str = "uniform:16:4096"
    accesses_per_object: int = 4
    fault_rate: float = 0.0
    fault_kinds: tuple[str, ...] = SPATIAL_FAULT_KINDS
    edge_probe: bool = False
    array_fraction: float = 0.0
    free_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.objects < 1:
            raise ValueError("objects must be at least 1")
        if self.accesses_per_object < 0:
            raise ValueError("accesses_per_object must be non-negative")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        for frac in (self.array_fraction, self.free_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("fractions must be in [0, 1]")
        if self.fault_rate > 0.0 and not self.fault_kinds:
            raise ValueError("fault_rate set but fault_kinds is empty")
        for kind in self.fault_kinds:
            if kind not in SPATIAL_FAULT_KINDS + TEMPORAL_FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        _parse_size_dist(self.size_dist)


def _parse_size_dist(spec: str):
    parts = spec.split(":")
    try:
        if parts[0] == "fixed" and len(parts) == 2:
            value = int(parts[1])
            lo = hi = value
            sampler = lambda rng: value
        elif parts[0] == "uniform" and len(parts) == 3:
            lo, hi = int(parts[1]), int(parts[2])
            sampler = lambda rng: rng.randint(lo, hi)
        elif parts[0] == "loguniform" and len(parts) == 3:
            lo, hi = int(parts[1]), int(parts[2])
            lo_exp, hi_exp = math.log2(max(lo, 1)), math.log2(max(hi, 1))
            sampler = lambda rng: min(hi, max(lo, int(2 ** rng.uniform(lo_exp, hi_exp))))
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad size distribution {spec!r}") from None
    if not 1 <= lo <= hi <= MAX_WORKLOAD_OBJECT_SIZE:
        raise ValueError(f"size distribution {spec!r} outside [1, {MAX_WORKLOAD_OBJECT_SIZE}]")
    return sampler


_ARRAY_ELEM_SIZES = (1, 2, 3, 4, 8, 16, 24, 32, 64)


def gen_workload(seed: int, params: WorkloadParams) -> tuple[list[TraceEvent], dict[int, str]]:
    """Deterministic synthetic trace plus its fault manifest.

    The manifest maps event index to the expected violation kind; a run
    of the trace must flag exactly those events and nothing else.
    """
    rng = random.Random(seed)
    sample_size = _parse_size_dist(params.size_dist)

    queues: list[list[tuple[TraceEvent, str | None]]] = []
    for k in range(params.objects):
        name = f"o{k}"
        faults = [
            rng.choice(params.fault_kinds)
            for _ in range(params.accesses_per_object)
            if rng.random() < params.fault_rate
        ]
        spatial = [f for f in faults if f in SPATIAL_FAULT_KINDS]
        temporal = [f for f in faults if f in TEMPORAL_FAULT_KINDS]
        normal_accesses = params.accesses_per_object - len(faults)

        size = sample_size(rng)
        if "use_after_free" in temporal:
            # force a big wrapper frame so the vacated entry is observable
            size = max(size, (1 << 16) + rng.randrange(1 << 16))
        seq: list[tuple[TraceEvent, str | None]] = []
        if rng.random() < params.array_fraction:
            elem = rng.choice([e for e in _ARRAY_ELEM_SIZES if e <= size])
            count = max(1, size // elem)
            size = count * elem
            seq.append((TraceEvent("alloc_array", id=name, args=(count, elem)), None))
        else:
            seq.append((TraceEvent("alloc", id=name, args=(size, 0)), None))

        for _ in range(normal_accesses):
            offset = rng.randrange(size)
            access = rng.randint(1, min(8, size - offset))
            op = "store" if rng.random() < 0.5 else "load"
            seq.append((TraceEvent(op, id=name, args=(offset, access)), None))
        for kind in spatial:
            if kind == "overflow":
                seq.append((TraceEvent("store", id=name, args=(size, 1)), "overflow"))
            else:
                seq.append((TraceEvent("store", id=name, args=(-1, 1)), "underflow"))
        if params.edge_probe:
            seq.append((TraceEvent("store", id=name, args=(size, 1)), "overflow"))
            seq.append((TraceEvent("store", id=name, args=(-1, 1)), "underflow"))
        if temporal:
            seq.append((TraceEvent("free", id=name), None))
            for kind in temporal:
                if kind == "use_after_free":
                    seq.append((TraceEvent("load", id=name, args=(0, 1)), "use_after_free"))
                else:
                    seq.append((TraceEvent("free", id=name), "double_free"))
        elif rng.random() < params.free_fraction:
            seq.append((TraceEvent("free", id=name), None))
        queues.append(seq)

    # interleave objects' sequences, preserving each object's own order
    events: list[TraceEvent] = []
    manifest: dict[int, str] = {}
    pending = list(range(len(queues)))
    positions = [0] * len(queues)
    while pending:
        slot = rng.randrange(len(pending))
        qi = pending[slot]
        ev, expected = queues[qi][positions[qi]]
        positions[qi] += 1
        if positions[qi] == len(queues[qi]):
            pending[slot] = pending[-1]
            pending.pop()
        if expected is not None:
            manifest[len(events)] = expected
        events.append(ev)
    return events, manifest


# -- reporting -----------------------------------------------------------

def emit_report(report: RunReport, fmt: str = "text") -> str:
    """Render a run report as human-readable text or stable JSON."""
    if fmt == "json":
        payload = {
            "verdicts": report.verdicts,
            "overhead": report.overhead,
            "checks": report.checks,
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    v = report.verdicts
    o = report.overhead
    c = report.checks
    lines = [
        f"events:     {report.event_count}",
        (
            "verdicts:   "
            f"ok={v['ok']} overflow={v['overflow']} underflow={v['underflow']} "
            f"out_of_frame={v['out_of_frame']} use_after_free={v['use_after_free']} "
            f"double_free={v['double_free']} untracked={v['untracked']}"
        ),
        f"violations: {report.violation_total}",
        (
            "checks:     "
            f"access={c['access_checks']} arith={c['arith_checks']} "
            f"lookups_small={c['lookups_small']} lookups_big={c['lookups_big']}"
        ),
        (
            "overhead:   "
            f"headers={o['header_bytes']}B table={o['table_bytes']}B "
            f"payload={o['payload_bytes']}B ratio={o['ratio']:.4f}"
        ),
    ]
    if report.live_stats:
        s = report.live_stats
        lines.append(
            "arena:      "
            f"live={s['live_allocations']} live_headers={s['live_header_bytes']}B "
            f"table_reserved={s['table_reserved_bytes']}B used={s['cursor_used_bytes']}B"
        )
    return "\n".join(lines) + "\n"
