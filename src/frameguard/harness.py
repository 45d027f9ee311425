"""Trace replay harness: parse or generate event streams, drive the
arena and checker, and report verdicts and space overhead.

Trace grammar, one event per line, whitespace separated, `#` starts a
comment.  A line ends only at LF, CRLF or CR, as in a text-mode file;
any other Unicode line separator (form feed, vertical tab, U+001C to
U+001E, U+0085, U+2028, U+2029) is whitespace and never ends a comment.
`_GRAMMAR` below is the grammar's source of truth: each op's id count
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
end; probing such addresses is the point.  Integers follow `int(tok, 0)`:
0x/0o/0b prefixes and underscores are accepted, a nonzero decimal with
a leading zero (010) is not.
An alloc or realloc size, an alloc_array's count * elem_size and a
type id must fit 32 bits.
Ids must be introduced by alloc or alloc_array before any other use.
Each load/store composes a pointer at base+offset from the object's
canonical tagged pointer; ptr_add moves a cursor pointer of the id's
current allocation, which starts at the object base, and the
copy/string events consume that cursor, so arithmetic sequences can be
expressed.  Allocations inside scope_begin/scope_end belong to the
innermost open scope and are released at its scope_end, the way frame
entries of non-static locals are vacated in a function epilogue.

Each line parses to a `TraceEvent` named tuple (op, id, id2, args)
whose op is the `_GRAMMAR` key and whose ids are the strings of their
defining allocs, so a long trace holds each name once.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple, Sequence

from .arena import DEFAULT_ARENA_BASE, DEFAULT_ARENA_SIZE, DEFAULT_PAD_BYTES, Arena
from .checker import AccessRequest, Checker
from .messages import cut
from .metadata import HEADER_SIZE, _U32_MAX
from .tagging import TagError, rebase
from .verdicts import OK, Verdict, VerdictKind

MAX_WORKLOAD_OBJECT_SIZE = 1 << 20


class TraceSyntaxError(ValueError):
    """Malformed trace input; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class TraceEvent(NamedTuple):
    op: str
    id: str = ""
    id2: str = ""
    args: tuple[int, ...] = ()


@dataclass(frozen=True)
class EngineConfig:
    arena_base: int = DEFAULT_ARENA_BASE
    arena_size: int = DEFAULT_ARENA_SIZE
    pad_bytes: int = DEFAULT_PAD_BYTES
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


def _compile(op: str, spec: _Op) -> tuple:
    """parse_trace's row for one op: (op, ids, fewest and most tokens,
    (token index, name, lowest, highest, each bound as int or None if
    infinite) for each field, defines, scope)."""
    n_ids, fields, optional, defines, scope = spec
    most = 1 + n_ids + len(fields)
    checks = tuple((i, name, lo, hi, None if lo == -math.inf else lo, None if hi == math.inf else hi)
                   for i, (name, lo, hi) in enumerate(fields, start=1 + n_ids))
    return op, n_ids, most - optional, most, checks, defines, scope


_ROWS = {op: _compile(op, spec) for op, spec in _GRAMMAR.items()}


def parse_trace(source: str | Iterable[str]) -> list[TraceEvent]:
    """Parse trace text into events, each line checked once against
    `_ROWS`.  A refused line raises TraceSyntaxError at its first failed
    check, in this order: the op, the argument count, each used id, each
    field (an integer, then in bounds), the alloc_array product and the
    scope depth.  A str is split into lines the way a text file is."""
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    events: list[TraceEvent] = []
    append = events.append
    defined: dict[str, str] = {}
    known = defined.setdefault
    rows = _ROWS
    new = tuple.__new__
    depth = 0
    for line_no, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        try:
            op, n_ids, fewest, most, fields, defines, scope = rows[toks[0]]
        except KeyError:
            raise TraceSyntaxError(line_no, f"unknown operation {cut(toks[0])}") from None
        n = len(toks)
        if n != most:
            if n != fewest:
                raise TraceSyntaxError(
                    line_no, f"{op} takes {fewest - 1}..{most - 1} arguments, got {n - 1}")
            toks.append("0")    # the optional field, left off, reads as 0
        try:
            if not n_ids:
                name = name2 = ""
            elif defines:
                name = known(toks[1], toks[1])
                name2 = ""
            else:
                name = defined[toks[1]]
                name2 = defined[toks[2]] if n_ids == 2 else ""
        except KeyError as e:
            raise TraceSyntaxError(line_no, f"undefined id {cut(e.args[0])}") from None
        args = ()
        for i, field, lo, hi, low, high in fields:
            tok = toks[i]
            try:
                v = int(tok, 0)
            except ValueError:
                raise TraceSyntaxError(line_no, f"{field} {cut(tok)} is not an integer") from None
            if low is not None and v < low or high is not None and v > high:
                raise TraceSyntaxError(line_no, f"{field} {cut(tok, False)} outside [{lo}, {hi}]")
            args += (v,)
        # the product is the header's 32-bit size field
        if op == "alloc_array" and args[0] * args[1] > _U32_MAX:
            raise TraceSyntaxError(
                line_no, f"count * elem_size {cut(args[0] * args[1])} outside [1, {_U32_MAX}]")
        depth += scope
        if depth < 0:
            raise TraceSyntaxError(line_no, "scope_end without matching scope_begin")
        append(new(TraceEvent, (op, name, name2, args)))
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


def run_trace(events: Iterable[TraceEvent], config: EngineConfig | None = None) -> RunReport:
    """Execute events from any iterable, in order; violations are data, never exceptions."""
    config = config or EngineConfig()
    rng = random.Random(config.placement_seed) if config.placement_jitter else None
    arena = Arena(base=config.arena_base, size=config.arena_size, pad_bytes=config.pad_bytes,
                  placement_jitter=config.placement_jitter, rng=rng)
    checker = Checker(arena)
    check_access, check_free = checker.check_access, checker.check_free
    copy_checks = {"memcpy": checker.check_memcpy, "strcpy": checker.check_strcpy,
                   "strncpy": checker.check_strncpy}
    bindings: dict[str, object] = {}
    cursors: dict[int, int] = {}    # header address -> pointer ptr_add moved
    scopes: list[list] = []
    counts = dict.fromkeys(VerdictKind, 0)
    oks = 0     # ok verdicts of load, store and free, kept apart from counts
    violations: list[tuple[int, str]] = []

    def _record(name: str):
        try:
            return bindings[name]
        except KeyError:
            raise TraceRuntimeError(f"id {cut(name)} used before allocation") from None

    index = -1      # the loop counts the events
    for index, (op, name, name2, args) in enumerate(events):
        verdict: Verdict | None = None
        if op in ("load", "store", "ptr_add"):
            # the hot path: binding lookup inline (a record is always
            # true, and _record raises for an unbound id)
            record = bindings.get(name) or _record(name)
            try:    # rebase is the one range check of the address
                tagged = rebase(record.tagged, record.obj_base + args[0])
            except TagError:
                raise TraceRuntimeError(
                    f"offset {cut(args[0])} moves {cut(name)} outside the 48-bit space") from None
            if op == "ptr_add":
                if config.arith_checks:
                    verdict = checker.check_arith(
                        cursors.get(record.header_addr, record.tagged), tagged)
                cursors[record.header_addr] = tagged
            else:
                verdict = check_access(AccessRequest(tagged, args[1]))
                if verdict[0] is OK:
                    oks += 1
                    continue
        elif op in ("alloc", "alloc_array"):
            # (size, type_id) and (count, elem_size) are both positional
            record = (arena.alloc if op == "alloc" else arena.alloc_array)(
                *args, scope_id=len(scopes) - 1 if scopes else None)
            bindings[name] = record
            if scopes:
                scopes[-1].append(record)
        elif op == "free":
            verdict = check_free(_record(name).tagged)
            if verdict[0] is OK:
                oks += 1
                continue
        elif op == "realloc":
            record = _record(name)
            verdict, new_record = arena.realloc(record.tagged, args[0])
            if new_record is not None:
                bindings[name] = new_record
                sid = new_record.scope_id
                if sid is not None:
                    scopes[sid].append(new_record)
        elif op in copy_checks:
            dst, src = _record(name), _record(name2)
            verdict = copy_checks[op](cursors.get(dst.header_addr, dst.tagged),
                                      cursors.get(src.header_addr, src.tagged), args[0])
        elif op == "scope_begin":
            scopes.append([])
        elif op == "scope_end":
            if not scopes:
                raise TraceRuntimeError("scope_end without matching scope_begin")
            arena.scope_end(scopes.pop())
        else:
            raise TraceRuntimeError(f"unknown operation {cut(op)}")
        if verdict is not None:
            # counted by member: a member's .value read is slow per event
            kind = verdict.kind
            counts[kind] += 1
            if verdict.is_violation:
                violations.append((index, kind.value))
    counts[OK] += oks

    stats = arena.stats()
    header_bytes = HEADER_SIZE * stats["total_allocations"]
    payload_bytes = stats["total_payload_bytes"]
    table_bytes = stats["table_touched_bytes"]
    ratio = (header_bytes + table_bytes + payload_bytes) / payload_bytes if payload_bytes else 1.0
    return RunReport(
        event_count=index + 1,
        verdicts={kind.value: n for kind, n in counts.items()},
        checks=asdict(checker.counters),
        overhead={"header_bytes": header_bytes, "table_bytes": table_bytes,
                  "payload_bytes": payload_bytes, "ratio": ratio},
        violations=violations,
        live_stats=stats,
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
        if params.edge_probe:
            spatial += SPATIAL_FAULT_KINDS
        for kind in spatial:
            offset = size if kind == "overflow" else -1
            seq.append((TraceEvent("store", id=name, args=(offset, 1)), kind))
        if temporal:
            seq.append((TraceEvent("free", id=name), None))
            for kind in temporal:
                if kind == "use_after_free":
                    seq.append((TraceEvent("load", id=name, args=(0, 1)), "use_after_free"))
                else:
                    seq.append((TraceEvent("free", id=name), "double_free"))
        elif rng.random() < params.free_fraction:
            seq.append((TraceEvent("free", id=name), None))
        queues.append(seq[::-1])    # reversed: pop() takes the object's next event

    # interleave objects' sequences, preserving each object's own order
    events: list[TraceEvent] = []
    manifest: dict[int, str] = {}
    while queues:
        slot = rng.randrange(len(queues))
        queue = queues[slot]
        ev, expected = queue.pop()
        if not queue:
            queues[slot] = queues[-1]
            queues.pop()
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
    o = report.overhead
    c = report.checks
    lines = [
        f"events:     {report.event_count}",
        "verdicts:   " + " ".join(f"{kind}={n}" for kind, n in report.verdicts.items()),
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
