"""Reference models the tests compare the library against.

Each one is deliberately naive and must stay independent of the code it
cross-checks.
"""

from decimal import Decimal

from frameguard.frame_math import ADDRESS_MASK, RegionError
from frameguard.harness import _GRAMMAR
from frameguard.metadata import _U32_MAX, ArenaRangeError
from frameguard.tagging import MAX_BIG_TAG, MIN_BIG_TAG, TAG_SHIFT, TagError
from frameguard.verdicts import VerdictKind

MAX_FRAME_LOG = 63


def in_frame(p: int, q: int, n: int) -> bool:
    """True iff untagged addresses p and q lie in the same n-frame."""
    if not 0 <= n <= MAX_FRAME_LOG:
        raise ValueError(f"frame log {n} outside [0, {MAX_FRAME_LOG}]")
    return (p ^ q) >> n == 0


def is_untagged(p: int) -> bool:
    """True for plain untracked addresses (no flag, no tag)."""
    return p >> TAG_SHIFT == 0


def split_pointer(p: int) -> tuple[int, int, int]:
    """Reference (flag, tag, address) of a 64-bit pointer value: its top
    bit, the 15 bits below it, then its low 48 bits."""
    return p // 2 ** 63, p // 2 ** 48 % 2 ** 15, p % 2 ** 48


def slot_base(addr: int) -> int:
    """Base of the 2**15-byte slot holding untagged addr."""
    return addr - addr % 2 ** 15


def frame_base(header_addr: int, n: int) -> int:
    """Base of the n-frame wrapping a header: the header address rounded
    down to a multiple of 2**n."""
    return header_addr & -(1 << n)


def tag_small(header: int, target: int) -> int:
    """Reference small-framed pointer to target, whose header shares its
    slot: flag 1, then the header's offset in that slot, then target."""
    return 2 ** 63 + (header - slot_base(header)) * 2 ** 48 + target


def tag_big(n: int, target: int) -> int:
    """Reference big-framed pointer to target in an n-frame: flag 0, then
    n, then target."""
    return n * 2 ** 48 + target


def wrapper_frame_oracle(lo: int, hi: int) -> int:
    """Reference wrapper-frame log-size found by linear scan.

    The smallest n whose 2**n-sized buckets put lo and hi in the same
    bucket.  Exists to cross-check frame_math.wrapper_frame.
    """
    if lo < 0 or hi > ADDRESS_MASK or lo > hi:
        raise RegionError(f"bad region [{lo:#x}, {hi:#x}]")
    for n in range(MAX_FRAME_LOG + 1):
        if lo >> n == hi >> n:
            return n
    raise AssertionError("unreachable for regions inside the 48-bit space")


def entry_key_oracle(table, addr: int, n: int) -> int:
    """Reference DivisionTable.entry_index from the table's arena bounds.

    The paper's layout: one 48-entry array per 2**16-byte division, the
    n-frame's entry at n - 16 in the division holding its frame base, or
    in the first division when the frame begins below the arena base.  A
    frame that shares no byte with the arena has no entry.
    """
    if not MIN_BIG_TAG <= n <= MAX_BIG_TAG:
        raise TagError(f"frame log {n} outside [{MIN_BIG_TAG}, {MAX_BIG_TAG}]")
    lo = addr - addr % 2 ** n
    hi = lo + 2 ** n
    start, end = table.arena_base, table.arena_base + table.arena_size
    if max(lo, start) >= min(hi, end):
        raise ArenaRangeError(f"frame [{lo:#x}, {hi:#x}) holds no arena byte")
    division = (max(lo, start) - start) // 2 ** 16
    return 48 * division + (n - 16)


def header_lookup_oracle(table, tagged: int) -> int:
    """Reference DivisionTable.header_lookup built from split_pointer, slot_base,
    entry_key_oracle and a read of the table's entry dict.

    Exists to cross-check the shifts and masks header_lookup splits a
    tag with; it raises what header_lookup raises.
    """
    flag, tag, addr = split_pointer(tagged)
    if flag:
        return slot_base(addr) + tag
    if not MIN_BIG_TAG <= tag <= MAX_BIG_TAG:
        raise TagError(f"value {tagged:#x} carries no resolvable tag")
    return table._entries.get(entry_key_oracle(table, addr, tag), 0)


def lookup_oracle(arena, records, tagged: int):
    """Reference Arena.lookup: UNTRACKED, OUT_OF_FRAME, the live record
    at the resolved header or None, from is_untagged,
    header_lookup_oracle and a scan of records, every record the caller
    allocated in arena; one is live while arena.records holds its equal.

    Release clears the header and keeps no record: a released
    big-framed object leaves only its vacated entry, so a small-framed
    pointer whose slot arithmetic lands on its header finds none there,
    and a released small-framed object leaves a cleared header, which
    that pointer finds as no record."""
    if is_untagged(tagged):
        return VerdictKind.UNTRACKED
    try:
        header = header_lookup_oracle(arena.table, tagged)
    except ArenaRangeError:
        return VerdictKind.OUT_OF_FRAME
    live = arena.records
    found = [r for r in records if r.header_addr == header]
    if split_pointer(tagged)[0] and not any(r in live or split_pointer(r.tagged)[0] for r in found):
        return VerdictKind.OUT_OF_FRAME
    return next((r for r in found if r in live), None)


def check_access_oracle(arena, records, tagged: int, size: int,
                        operand: str | None = None) -> tuple:
    """Reference Checker.check_access verdict, as a plain (kind, address,
    alloc_id, operand) tuple, from lookup_oracle and the bounds rule in
    checker.py's docstring.  operand labels a violation only, as the copy
    checks label the operand they judge."""
    record = lookup_oracle(arena, records, tagged)
    p = split_pointer(tagged)[2]
    if record is VerdictKind.UNTRACKED:
        return record, tagged, None, None
    if record is None:
        return VerdictKind.USE_AFTER_FREE, p, None, operand    # a released object, of either class
    if record is VerdictKind.OUT_OF_FRAME:
        return record, p, None, operand
    b, z = record.obj_base, record.raw_size
    if p < b:
        return VerdictKind.UNDERFLOW, p, record.id, operand
    if p + size - 1 > b + z - 1:
        return VerdictKind.OVERFLOW, p, record.id, operand
    return VerdictKind.OK, p, record.id, None


def copy_oracle(arena, records, op: str, dst: int, src: int, n: int) -> tuple:
    """Reference verdict of Checker.check_<op> for memcpy, strncpy and
    memset (n bytes) and strcpy (a string of length n): the destination
    is judged first, the source only by memcpy and strncpy, and a copy of
    two untracked operands or of no bytes has no address."""
    none = (None, None, None)
    if op == "strcpy":
        return check_access_oracle(arena, records, dst, n + 1, "dst")
    if n == 0:
        return (VerdictKind.OK,) + none
    passing = (VerdictKind.OK, VerdictKind.UNTRACKED)
    verdict = check_access_oracle(arena, records, dst, n, "dst")
    if op == "memset" or verdict[0] not in passing:
        return verdict
    other = check_access_oracle(arena, records, src, n, "src")
    if other[0] not in passing:
        return other
    if verdict[0] is other[0] is VerdictKind.UNTRACKED:
        return (VerdictKind.UNTRACKED,) + none
    return (VerdictKind.OK,) + none


def free_oracle(arena, records, tagged: int) -> tuple:
    """Reference Arena.free verdict from lookup_oracle: a live record is
    ok, a released object of either class a double free with no id."""
    record = lookup_oracle(arena, records, tagged)
    p = split_pointer(tagged)[2]
    if record is None:
        return VerdictKind.DOUBLE_FREE, p, None, None
    if isinstance(record, VerdictKind):
        return record, p, None, None
    return VerdictKind.OK, p, record.id, None


def _shown(tok: str, quoted: bool = True) -> str:
    """A refusal repeats the longest start of a token that shows in at
    most 40 characters, between the quotes of its repr if quoted, then
    gives its length if that start is not the whole token."""
    start = ""
    for c in tok:
        wider = start + c
        if len(repr(wider) if quoted else wider) > 40 + 2 * quoted:
            break
        start = wider
    shown = repr(start) if quoted else start
    return shown if start == tok else f"{shown}... ({len(tok)} characters)"


def _line_refusal(toks: list[str], defined: set[str], depth: int) -> str | None:
    """Why parse_trace refuses a line, given the ids defined and the
    scope depth before it, or None if it does not."""
    op = toks[0]
    spec = _GRAMMAR.get(op)
    if spec is None:
        return f"unknown operation {_shown(op)}"
    n_ids, fields, optional, defines, scope = spec
    most = n_ids + len(fields)
    missing = most + 1 - len(toks)
    if not 0 <= missing <= optional:
        return f"{op} takes {most - optional}..{most} arguments, got {len(toks) - 1}"
    if not defines:
        for name in toks[1:n_ids + 1]:
            if name not in defined:
                return f"undefined id {_shown(name)}"
    nums = []
    for tok, (field, lo, hi) in zip(toks[n_ids + 1:], fields):
        try:
            n = int(tok, 0)
        except ValueError:
            return f"{field} {_shown(tok)} is not an integer"
        if not lo <= n <= hi:
            return f"{field} {_shown(tok, False)} outside [{lo}, {hi}]"
        nums.append(n)
    if op == "alloc_array" and nums[0] * nums[1] > _U32_MAX:
        # through Decimal, since str() refuses an int past 4,300 digits
        product = _shown(str(Decimal(nums[0] * nums[1])), False)
        return f"count * elem_size {product} outside [1, {_U32_MAX}]"
    if depth + scope < 0:
        return "scope_end without matching scope_begin"
    return None


def trace_refusal_oracle(lines) -> tuple[int, str] | None:
    """Reference parse_trace refusal: (line number, reason) of the first
    line it refuses, or None.

    It shares only `_GRAMMAR`, the grammar's one statement, with
    parse_trace, and checks a line at a time in a fixed order: the op,
    the argument count, each used id, each field (an integer, then in
    bounds), the alloc_array product and the scope depth.
    """
    defined: set[str] = set()
    depth = 0
    for line_no, line in enumerate(lines, start=1):
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        reason = _line_refusal(toks, defined, depth)
        if reason is not None:
            return line_no, reason
        spec = _GRAMMAR[toks[0]]
        if spec.defines:
            defined.add(toks[1])
        depth += spec.scope
    return None
