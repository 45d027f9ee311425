"""Trace replay harness: parse or generate event streams, drive the
arena and checker, and report verdicts and space overhead.

Trace grammar, one event per line, whitespace separated, `#` starts a
comment.  `_GRAMMAR` below is its source of truth: each op's id count
and each integer field's bounds are stated there and nowhere else.

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
An alloc or realloc size, an alloc_array's count * elem_size and a
type id must fit 32 bits.
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
from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple, Sequence

from .arena import DEFAULT_ARENA_BASE, DEFAULT_ARENA_SIZE, Arena
from .checker import AccessRequest, Checker
from .frame_math import ADDRESS_MASK
from .metadata import HEADER_SIZE, _U32_MAX
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
    placement_jitter: int = 0         # max random inter-object gap, 16-byte units
    placement_seed: int = 0


@dataclass
class RunReport:
    """Aggregated outcome of one trace run.

    verdicts counts each kind; violations holds (event index, kind) for
    the violating events only, in order.  Nothing is kept per event.
    Overhead counts are cumulative over the run: one header per
    allocation performed, the payload bytes requested, and the
    footprint of division arrays actually touched.  ratio is
    (header + table + payload) / payload, or 1.0 for an empty run.
    """

    event_count: int
    verdicts: dict[str, int]
    checks: dict[str, int]
    overhead: dict[str, object]
    violations: list[tuple[int, str]]
    live_stats: dict[str, int]


# -- parsing -----------------------------------------------------------

class _Op(NamedTuple):
    """One op's line: its id operands, then its integer fields."""

    ids: int                                      # 0, 1 or 2
    fields: tuple[tuple[str, float, float], ...]  # (name, lowest, highest)
    optional: bool = False  # the last field may be left off; it reads as 0
    defines: bool = False   # the first id is introduced here, not used
    scope: int = 0          # +1 opens a scope, -1 closes the innermost one


# The trace grammar: parse_trace checks and format_trace renders every
# line from this table alone.
_GRAMMAR = {
    "alloc": _Op(1, (("size", 1, _U32_MAX), ("type_id", 0, _U32_MAX)),
                 optional=True, defines=True),
    "alloc_array": _Op(1, (("count", 1, math.inf), ("elem_size", 1, math.inf)),
                       defines=True),
    "realloc": _Op(1, (("new_size", 1, _U32_MAX),)),
    "free": _Op(1, ()),
    "load": _Op(1, (("offset", -math.inf, math.inf), ("access_size", 1, math.inf))),
    "store": _Op(1, (("offset", -math.inf, math.inf), ("access_size", 1, math.inf))),
    "ptr_add": _Op(1, (("new_offset", -math.inf, math.inf),)),
    "memcpy": _Op(2, (("n", 0, math.inf),)),
    "strcpy": _Op(2, (("srclen", 0, math.inf),)),
    "strncpy": _Op(2, (("n", 0, math.inf),)),
    "scope_begin": _Op(0, (), scope=1),
    "scope_end": _Op(0, (), scope=-1),
}


def parse_trace(source: str | Iterable[str]) -> list[TraceEvent]:
    """Parse trace text into events; every check on a line comes from `_GRAMMAR`."""
    lines = source.splitlines() if isinstance(source, str) else source
    events: list[TraceEvent] = []
    defined: set[str] = set()
    scope_depth = 0
    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        op = toks[0]
        spec = _GRAMMAR.get(op)
        if spec is None:
            raise TraceSyntaxError(line_no, f"unknown operation {op!r}")
        n_ids, fields, optional, defines, scope = spec
        most = n_ids + len(fields)
        missing = most + 1 - len(toks)
        if not 0 <= missing <= optional:
            raise TraceSyntaxError(
                line_no, f"{op} takes {most - optional}..{most} arguments, got {len(toks) - 1}")
        names = toks[1:n_ids + 1]
        if defines:
            defined.add(names[0])
        else:
            for name in names:
                if name not in defined:
                    raise TraceSyntaxError(line_no, f"undefined id {name!r}")
        nums = []
        for tok, (field, lo, hi) in zip(toks[n_ids + 1:], fields):
            try:
                n = int(tok, 0)
            except ValueError:
                raise TraceSyntaxError(line_no, f"{field} {tok!r} is not an integer") from None
            if not lo <= n <= hi:
                raise TraceSyntaxError(line_no, f"{field} {tok} outside [{lo}, {hi}]")
            nums.append(n)
        if missing:
            nums.append(0)
        if op == "alloc_array" and nums[0] * nums[1] > _U32_MAX:
            # the product is the header's 32-bit size field
            raise TraceSyntaxError(
                line_no, f"count * elem_size {nums[0] * nums[1]} outside [1, {_U32_MAX}]")
        scope_depth += scope
        if scope_depth < 0:
            raise TraceSyntaxError(line_no, "scope_end without matching scope_begin")
        events.append(TraceEvent(op, *names, args=tuple(nums)))
    return events


def _templates(op: str, spec: _Op) -> tuple[str, str | None, int]:
    """%-templates over an event's ids and args, with and without the optional field."""
    n = spec.ids + len(spec.fields)
    full = " ".join([op] + ["%s"] * n)
    return full, (full[:-3] if spec.optional else None), spec.ids


_TEMPLATES = {op: _templates(op, spec) for op, spec in _GRAMMAR.items()}


def format_trace(events: Sequence[TraceEvent]) -> str:
    """Serialize events back to trace text (inverse of parse_trace)."""
    lines = []
    for ev in events:
        template, short, n_ids = _TEMPLATES[ev.op]
        args = ev.args
        if short is not None and not args[-1]:
            template, args = short, args[:-1]
        lines.append(template % ((ev.id, ev.id2)[:n_ids] + args))
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
    copy_checks = {
        "memcpy": checker.check_memcpy,
        "strcpy": checker.check_strcpy,
        "strncpy": checker.check_strncpy,
    }
    bindings: dict[str, object] = {}
    cursors: dict[str, int] = {}
    scopes: list[list] = []
    counts = dict.fromkeys(VerdictKind, 0)
    violations: list[tuple[int, str]] = []

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

    for index, ev in enumerate(events):
        verdict: Verdict | None = None
        op = ev.op
        if op in ("load", "store"):
            offset, access_size = ev.args
            tagged = _rebased(ev.id, offset)
            verdict = checker.check_access(AccessRequest(tagged, access_size))
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
                if sid is not None:
                    scopes[sid].append(new_record)
        elif op == "ptr_add":
            new_tagged = _rebased(ev.id, ev.args[0])
            if config.arith_checks:
                verdict = checker.check_arith(cursors[ev.id], new_tagged)
            cursors[ev.id] = new_tagged
        elif op in copy_checks:
            _record(ev.id), _record(ev.id2)
            verdict = copy_checks[op](cursors[ev.id], cursors[ev.id2], ev.args[0])
        elif op == "scope_begin":
            scopes.append([])
        elif op == "scope_end":
            if not scopes:
                raise TraceRuntimeError("scope_end without matching scope_begin")
            arena.scope_end(scopes.pop())
        else:
            raise TraceRuntimeError(f"unknown operation {op!r}")
        if verdict is not None:
            # counted by member: a member's .value read is slow per event
            counts[verdict.kind] += 1
            if verdict.is_violation:
                violations.append((index, verdict.kind.value))

    stats = arena.stats()
    header_bytes = HEADER_SIZE * stats.total_allocations
    payload_bytes = stats.total_payload_bytes
    table_bytes = stats.table_touched_bytes
    ratio = (header_bytes + table_bytes + payload_bytes) / payload_bytes if payload_bytes else 1.0
    return RunReport(
        event_count=len(events),
        verdicts={kind.value: n for kind, n in counts.items()},
        checks=asdict(checker.counters),
        overhead={
            "header_bytes": header_bytes,
            "table_bytes": table_bytes,
            "payload_bytes": payload_bytes,
            "ratio": ratio,
        },
        violations=violations,
        live_stats=asdict(stats),
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
        f"violations: {len(report.violations)}",
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
    s = report.live_stats
    lines.append(
        "arena:      "
        f"live={s['live_allocations']} live_headers={s['live_header_bytes']}B "
        f"table_reserved={s['table_reserved_bytes']}B used={s['cursor_used_bytes']}B"
    )
    return "\n".join(lines) + "\n"
