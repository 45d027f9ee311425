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
expressed.  An alloc inside scope_begin/scope_end joins the innermost
open scope, a realloc keeps its object's scope, and scope_end releases
the scope's live objects, as a function epilogue vacates its locals.

parse_trace returns a `Trace`, which holds each line as one row of ints,
each column at the narrowest width its values need (one byte until a
value does not fit), and each id string once; indexing or iterating it
gives `TraceEvent` named tuples (op, id, id2, args).  A str trace is split
a slice at a time.  `_rows` applies the rules to parse_trace's lines and
run_trace's events alike, so run_trace refuses an event of any other
iterable, at its turn, with the reason parse_trace gives its line.
run_trace's report holds its violations in two columns.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, count
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arena import DEFAULT_ARENA_BASE, DEFAULT_ARENA_SIZE, DEFAULT_PAD_BYTES, Arena
from .checker import AccessRequest, Checker
from .frame_math import ADDRESS_MASK
from .messages import cut
from .metadata import HEADER_SIZE, _U32_MAX
from .tagging import TagError, rebase
from .verdicts import OK, Verdict, VerdictKind

MAX_WORKLOAD_OBJECT_SIZE = 1 << 20
_KINDS = tuple(kind.value for kind in VerdictKind)     # a violation's kind code is its index here
_KIND_CODES = {kind: code for code, kind in enumerate(VerdictKind)}


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

    verdicts counts each kind; violations, a read-only sequence equal to
    a list, holds (event index, kind) for the violating events only, in
    order, at about 9 bytes each.  Nothing is kept per event.
    Overhead counts are cumulative over the run: one header per
    allocation performed, the payload bytes requested, and the
    footprint of division arrays actually touched.  ratio is
    (header + table + payload) / payload, or 1.0 for an empty run.
    """

    event_count: int
    verdicts: dict[str, int]
    checks: dict[str, int]
    overhead: dict[str, object]
    violations: Sequence[tuple[int, str]]
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
_OPS = tuple(_GRAMMAR)      # a row's op code is its op's index here
_ALLOC, _ALLOC_ARRAY, _REALLOC, _FREE, _LOAD, _STORE, _PTR_ADD, _SCOPE_BEGIN = map(_OPS.index, (
    "alloc", "alloc_array", "realloc", "free", "load", "store", "ptr_add", "scope_begin"))
_N_FIELDS = tuple(len(spec.fields) for spec in _GRAMMAR.values())    # by op code


def _token(name) -> bool:    # an event op or id that its line holds as one token
    return name.__class__ is str and "#" not in name and name.split() == [name]


def _reread(line: bool, refused, names: list[str], defined: dict, label: int, record,
            n_ids: int, reason: str) -> tuple:
    """`_rows`'s row of record, an event read as its line, if the line holds a token but
    not each op, id and field of record as one; else raise refused(label, reason).  At a
    field, the line keeps the event's op and ids, so the rows differ only in fields."""
    def word(part) -> str:
        try:
            return str(part)
        except ValueError:      # an int too long for str(); int(tok, 0) reads its hex
            return hex(part)
    words = () if line else (*record[:1 + n_ids], *map(word, record[3]))
    row = not all(map(_token, words)) and next(
        _rows([" ".join(map(word, words))], True, refused, names, None, defined), None)
    if not row:
        raise refused(label, reason) from None
    return label, *row[1:]


def _rows(records: Iterable, line: bool, refused, names: list[str], columns: list | None = None,
          defined: dict | None = None):
    """The trace rules, stated once, over lines of text if line, else over
    TraceEvents: each becomes the row (label, its line number or event
    index; op code; id and id2 indexes in names, which gains each new id;
    fields f1 and f2, 0 where the op has none), or raises refused(label,
    reason) at its first failed check: the op, the argument count, each
    used id (dst before src), each field (an int, or a token int(tok, 0)
    reads, then in bounds), the alloc_array product, the scope depth.  So
    an event gets its line's reason: a field is read as its str, and an
    event refused with an op, id or field that is no one token of its line
    is read as that line, sharing defined.  Rows are appended to columns,
    if given, through `_widened`; else each is yielded at its record's turn."""
    table = {}      # each op's entry, compiled from `_GRAMMAR` for this form
    for code, (op, (n_ids, fields, optional, defines, scope)) in enumerate(_GRAMMAR.items()):
        first = 1 + n_ids if line else 0       # where the fields start, in tokens or in args
        checks = tuple((first + col, col, name, lo, hi, None if lo == -math.inf else lo,
                        None if hi == math.inf else hi) for col, (name, lo, hi) in enumerate(fields))
        most = first + len(fields)
        table[op] = code, n_ids, most - optional, most, n_ids - first, checks, defines, scope
    defined, depth = {} if defined is None else defined, 0     # each id to its index in names
    reread = partial(_reread, line, refused, names, defined)    # called at a refusal only
    ops, ids, ids2, f1, f2 = columns or (None,) * 5
    for label, record in enumerate(records, 1 if line else 0):
        if line:
            if "#" in record:
                record = record.split("#", 1)[0]
            record = fields = record.split()
            if not record:
                continue
        else:
            fields = record[3]
        try:
            code, n_ids, fewest, most, shift, checks, defines, scope = table[record[0]]
        except KeyError:
            yield reread(label, record, 1, f"unknown operation {cut(record[0])}")
            continue
        if len(fields) != most:
            if len(fields) != fewest:
                yield reread(label, record, n_ids, f"{record[0]} takes {fewest + shift}.."
                             f"{most + shift} arguments, got {len(fields) + shift}")
                continue
            checks = checks[:-1]    # the optional field, left off, reads as 0
        if defines and record[1] not in defined and (line or _token(record[1])):
            defined[record[1]] = len(names)
            names.append(record[1])
        try:    # dst before src; an id in defined is a token
            ix = defined[record[1]] if n_ids else 0
            ix2 = defined[record[2]] if n_ids == 2 else 0
        except KeyError as e:
            yield reread(label, record, n_ids, f"undefined id {cut(e.args[0])}")
            continue
        v1 = v2 = 0
        for i, col, field, lo, hi, low, high in checks:
            v = tok = fields[i]
            if line or v.__class__ is not int:     # a line's fields are all tokens
                try:
                    v = int(tok if line else str(tok), 0)
                except (TypeError, ValueError):
                    v1, v2 = reread(label, record, n_ids,
                                    f"{field} {cut(str(tok))} is not an integer")[4:]
                    break
            if low is not None and v < low or high is not None and v > high:
                v1, v2 = reread(label, record, n_ids,
                                f"{field} {cut(tok, False)} outside [{lo}, {hi}]")[4:]
                break
            if col:
                v2 = v
            else:
                v1 = v
        # the product is the header's 32-bit size field
        if code == _ALLOC_ARRAY and v1 * v2 > _U32_MAX:
            raise refused(label, f"count * elem_size {cut(v1 * v2)} outside [1, {_U32_MAX}]")
        depth += scope
        if depth < 0:
            raise refused(label, "scope_end without matching scope_begin")
        if columns is None:
            yield label, code, ix, ix2, v1, v2
            continue
        try:
            ops.append(code)
            ids.append(ix)
            ids2.append(ix2)
            f1.append(v1)
            f2.append(v2)
        except OverflowError:
            ops, ids, ids2, f1, f2 = _widened(columns, (code, ix, ix2, v1, v2))


def _widened(columns: list, row: tuple) -> list:
    """columns with row appended, once its append stopped at an OverflowError:
    each column shorter than the op codes takes its value, moved as far up
    its ladder (b, h, i, q or B, H, I, Q, then a list) as it must be."""
    wider = {"b": "h", "h": "i", "i": "q", "B": "H", "H": "I", "I": "Q"}
    for k, v in enumerate(row):
        while len(columns[k]) < len(columns[0]):
            try:
                columns[k].append(v)
            except OverflowError:
                code = wider.get(columns[k].typecode)
                columns[k] = array(code, columns[k]) if code else list(columns[k])
    return columns


class _Columns(Sequence):
    """A read-only sequence of columns whose item k, built when read, is `self._item(*(column[k]
    for column in columns))`; it equals a list of equal items on either side of == or !=."""

    def __init__(self, columns: tuple):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, k):
        columns = [c[k] for c in self.columns]
        return list(map(self._item, *columns)) if isinstance(k, slice) else self._item(*columns)

    def __iter__(self) -> Iterator:
        return map(self._item, *self.columns)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, (_Columns, list)) and len(self) == len(other)
                and all(a == b for a, b in zip(self, other)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class Trace(_Columns):
    """parse_trace's events as row columns: op codes, id and id2 indexes in names,
    whose 0 is "", and two int field columns.  Each column but the op codes'
    starts one byte wide and is widened only as far as its values need (`_widened`).
    The rows have passed `_rows`'s checks; replay does not check them again."""

    def __init__(self, columns: tuple, names: list[str]):
        self.columns, self.names = columns, names

    def _item(self, op: int, i: int, i2: int, f1: int, f2: int) -> TraceEvent:
        return tuple.__new__(TraceEvent, (_OPS[op], self.names[i], self.names[i2],
                                          (f1, f2)[:_N_FIELDS[op]]))


_CHUNK = 1 << 14    # about this many characters of a str trace are split at a time


def _line_lists(text: str) -> Iterator[list[str]]:
    """text's lines, without their ends, split at LF, CRLF and CR as a
    text-mode file splits them, in one list per slice of about _CHUNK
    characters.  A slice ends just after a line end, never between the
    CR and LF of a CRLF, and only one slice at a time is copied."""
    start, end = 0, len(text)
    while start < end:
        at = start + _CHUNK - 1
        stop = text.find("\n", at) + 1 or end
        cr = text.find("\r", at, stop - 1)     # a CR-only text has no LF to end at
        if cr >= 0:
            stop = cr + 2 if text[cr + 1] == "\n" else cr + 1
        lines = text[start:stop].replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if not lines[-1]:
            lines.pop()     # the empty piece after the slice's last line end
        yield lines
        start = stop


def parse_trace(source: str | Iterable[str]) -> Trace:
    """Parse trace text into events, each line made into a `Trace` row, or
    refused with TraceSyntaxError, by `_rows`.  A str is split into lines
    by `_line_lists`, the way a text-mode file splits them, with no copy of
    the whole text.  Each column of ids and fields starts one byte wide."""
    lines = chain.from_iterable(_line_lists(source)) if isinstance(source, str) else source
    names, columns = [""], [bytearray(), array("B"), array("B"), array("b"), array("b")]
    next(_rows(lines, True, TraceSyntaxError, names, columns), None)   # it yields no row
    return Trace(tuple(columns), names)


# each op's line shape for format_trace: (ids, fields, last field optional)
_SHAPES = {op: (spec.ids, len(spec.fields), spec.optional) for op, spec in _GRAMMAR.items()}


def format_trace(events: Sequence[TraceEvent]) -> str:
    """Serialize events back to trace text (inverse of parse_trace), one
    f-string per line by the op's `_SHAPES` row; args that do not fit it
    raise TypeError.  An optional field left off is written as one that is 0."""
    lines = []
    append = lines.append
    for op, name, name2, args in events:
        n_ids, n, optional = _SHAPES[op]
        if len(args) != n:
            if len(args) != n - optional:
                raise TypeError(f"{op} takes {n} args, got {len(args)}")
            args = (*args, 0)
        if n == 2:      # an optional field that is 0 is left off
            append(f"{op} {name} {args[0]} {args[1]}" if args[1] or not optional
                   else f"{op} {name} {args[0]}")
        elif not n:
            append(f"{op} {name}" if n_ids else op)
        else:
            append(f"{op} {name} {name2} {args[0]}" if n_ids == 2 else f"{op} {name} {args[0]}")
    return "\n".join(lines) + "\n"


# -- execution ---------------------------------------------------------

class TraceRuntimeError(RuntimeError):
    """A trace event broke a trace rule or could not be executed."""


class _Violations(_Columns):
    """run_trace's violations: event indexes in array('q'), kind codes in a bytearray."""

    def _item(self, index: int, code: int) -> tuple[int, str]:
        return index, _KINDS[code]


def run_trace(events: Iterable[TraceEvent], config: EngineConfig | None = None) -> RunReport:
    """Execute events from any iterable, in order; violations are data, never exceptions.
    An iterable other than a `Trace` is read an event at a time, checked by `_rows`."""
    config = config or EngineConfig()
    rng = random.Random(config.placement_seed) if config.placement_jitter else None
    arena = Arena(base=config.arena_base, size=config.arena_size, pad_bytes=config.pad_bytes,
                  placement_jitter=config.placement_jitter, rng=rng)
    checker = Checker(arena)
    check_access = checker.check_access
    alloc, alloc_array, free = arena.alloc, arena.alloc_array, arena.free
    copy_checks = {_OPS.index(op): getattr(checker, "check_" + op)
                   for op in ("memcpy", "strcpy", "strncpy")}
    names = events.names if isinstance(events, Trace) else [""]
    rows = (zip(count(), *events.columns) if isinstance(events, Trace)  # else checked as read
            else _rows(events, False, lambda index, reason: TraceRuntimeError(reason), names))
    bindings = [0] * len(names)     # names[i]'s canonical tagged pointer (its object base)
    cursors: dict[int, int] = {}    # id index -> pointer ptr_add moved
    counts = dict.fromkeys(VerdictKind, 0)
    oks = 0     # ok verdicts of load, store and free, kept apart from counts
    indexes, codes = array("q"), bytearray()   # the violations' two columns

    index = -1      # the loop counts the events
    for index, op, ix, ix2, f1, f2 in rows:
        verdict: Verdict | None = None
        if op == _LOAD or op == _STORE or op == _PTR_ADD:
            base = bindings[ix]
            try:    # rebase is the one range check of the address
                tagged = rebase(base, (base & ADDRESS_MASK) + f1)
            except TagError:
                raise TraceRuntimeError(f"offset {cut(f1)} moves {cut(names[ix])} "
                                        "outside the 48-bit space") from None
            if op == _PTR_ADD:
                if config.arith_checks:
                    verdict = checker.check_arith(cursors.get(ix, base), tagged)
                cursors[ix] = tagged
            else:
                verdict = check_access(AccessRequest(tagged, f2))
                if verdict[0] is OK:
                    oks += 1
                    continue
        elif op == _ALLOC or op == _ALLOC_ARRAY:
            cursors.pop(ix, None)
            if ix == len(bindings):     # an id an event iterable defines
                bindings.append(0)
            bindings[ix] = (alloc if op == _ALLOC else alloc_array)(f1, f2).tagged
        elif op == _FREE:
            verdict = free(bindings[ix])
            if verdict[0] is OK:
                oks += 1
                continue
        elif op == _REALLOC:
            verdict, record = arena.realloc(bindings[ix], f1)
            if record is not None:
                cursors.pop(ix, None)
                bindings[ix] = record.tagged
        elif op in copy_checks:
            verdict = copy_checks[op](cursors.get(ix, bindings[ix]),
                                      cursors.get(ix2, bindings[ix2]), f1)
        elif op == _SCOPE_BEGIN:
            arena.scope_begin()
        else:   # scope_end, the one code left
            arena.scope_end()
        if verdict is not None:
            # counted by member: a member's .value read is slow per event
            kind = verdict.kind
            counts[kind] += 1
            if verdict.is_violation:
                indexes.append(index)
                codes.append(_KIND_CODES[kind])
    counts[OK] += oks

    stats = arena.stats()
    header_bytes = HEADER_SIZE * stats["total_allocations"]
    payload_bytes = stats["total_payload_bytes"]
    table_bytes = stats["table_touched_bytes"]
    ratio = (header_bytes + table_bytes + payload_bytes) / payload_bytes if payload_bytes else 1.0
    return RunReport(
        event_count=index + 1,
        verdicts={kind.value: n for kind, n in counts.items()},
        checks={"access_checks": checker.access_checks, "arith_checks": checker.arith_checks,
                "lookups_small": checker.lookups_small, "lookups_big": checker.lookups_big},
        overhead={"header_bytes": header_bytes, "table_bytes": table_bytes,
                  "payload_bytes": payload_bytes, "ratio": ratio},
        violations=_Violations((indexes, codes)),
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


def _below(rng: random.Random):
    """below(n) is rng.randrange(n) for n >= 1, drawn as CPython draws it:
    getrandbits(n.bit_length()) until the value is under n, with
    getrandbits bound once and none of randrange's wrapper calls."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def _parse_size_dist(spec: str):
    """spec's sampler: sampler(below, rand) is one size drawn as
    rng.randint(LO, HI) or 2 ** rng.uniform(log2 LO, log2 HI) would draw
    it, through `_below(rng)` and rng.random."""
    parts = spec.split(":")
    try:
        if parts[0] == "fixed" and len(parts) == 2:
            value = int(parts[1])
            lo = hi = value
            sampler = lambda below, rand: value
        elif parts[0] == "uniform" and len(parts) == 3:
            lo, hi = int(parts[1]), int(parts[2])
            sampler = lambda below, rand: lo + below(hi - lo + 1)
        elif parts[0] == "loguniform" and len(parts) == 3:
            lo, hi = int(parts[1]), int(parts[2])
            lo_exp, hi_exp = math.log2(max(lo, 1)), math.log2(max(hi, 1))
            sampler = lambda below, rand: min(
                hi, max(lo, int(2 ** (lo_exp + (hi_exp - lo_exp) * rand()))))
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad size distribution {spec!r}") from None
    if lo > hi:
        raise ValueError(f"size distribution {spec!r} has LO above HI")
    if lo < 1 or hi > MAX_WORKLOAD_OBJECT_SIZE:
        raise ValueError(f"size distribution {spec!r} outside [1, {MAX_WORKLOAD_OBJECT_SIZE}]")
    return sampler


_ARRAY_ELEM_SIZES = (1, 2, 3, 4, 8, 16, 24, 32, 64)


def gen_workload(seed: int, params: WorkloadParams) -> tuple[list[TraceEvent], dict[int, str]]:
    """Deterministic synthetic trace plus its fault manifest.

    The manifest maps event index to the expected violation kind; a run
    of the trace must flag exactly those events and nothing else.

    A trace is a function of (seed, params) alone, on every supported
    CPython: each value in it is what random.Random(seed)'s randrange,
    randint, choice and uniform would draw, in the same order.  The
    integers are drawn as `_below` draws them, without those methods' calls.
    """
    rng = random.Random(seed)
    below, rand = _below(rng), rng.random
    sample_size = _parse_size_dist(params.size_dist)
    kinds, fault_rate = params.fault_kinds, params.fault_rate
    new = tuple.__new__

    # each object's events, last first; an event the manifest lists is
    # queued as an (event, kind) pair
    queues: list[list] = []
    for k in range(params.objects):
        name = f"o{k}"
        faults = [kinds[below(len(kinds))]
                  for _ in range(params.accesses_per_object) if rand() < fault_rate]
        spatial = [f for f in faults if f in SPATIAL_FAULT_KINDS]
        temporal = [f for f in faults if f in TEMPORAL_FAULT_KINDS]
        normal_accesses = params.accesses_per_object - len(faults)

        size = sample_size(below, rand)
        if "use_after_free" in temporal:
            # force a big wrapper frame so the vacated entry is observable
            size = max(size, (1 << 16) + below(1 << 16))
        if rand() < params.array_fraction:
            elems = [e for e in _ARRAY_ELEM_SIZES if e <= size]
            elem = elems[below(len(elems))]
            count = max(1, size // elem)
            size = count * elem
            seq = [new(TraceEvent, ("alloc_array", name, "", (count, elem)))]
        else:
            seq = [new(TraceEvent, ("alloc", name, "", (size, 0)))]
        append = seq.append

        for _ in range(normal_accesses):
            offset = below(size)
            room = size - offset
            access = 1 + below(room if room < 8 else 8)
            op = "store" if rand() < 0.5 else "load"
            append(new(TraceEvent, (op, name, "", (offset, access))))
        if params.edge_probe:
            spatial += SPATIAL_FAULT_KINDS
        for kind in spatial:
            offset = size if kind == "overflow" else -1
            append((new(TraceEvent, ("store", name, "", (offset, 1))), kind))
        free = new(TraceEvent, ("free", name, "", ()))
        if temporal:
            append(free)
            for kind in temporal:
                if kind == "use_after_free":
                    append((new(TraceEvent, ("load", name, "", (0, 1))), kind))
                else:
                    append((free, kind))
        elif rand() < params.free_fraction:
            append(free)
        queues.append(seq[::-1])

    # interleave objects' sequences, preserving each object's own order
    events: list[TraceEvent] = []
    append = events.append
    manifest: dict[int, str] = {}
    while queues:
        slot = below(len(queues))
        queue = queues[slot]
        ev = queue.pop()
        if not queue:
            queues[slot] = queues[-1]
            queues.pop()
        if ev.__class__ is tuple:   # not a TraceEvent: an (event, kind) pair
            ev, kind = ev
            manifest[len(events)] = kind
        append(ev)
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
