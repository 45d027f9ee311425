"""Runtime verification of tagged-pointer accesses.

Every check classifies the pointer through Arena.lookup, the one place
a pointer's outcome is decided, reads the raw object size from the
allocation record it returns, and reports the outcome as a verdict.
Checks never raise for bad accesses; a replay run keeps going and
keeps only its violations, as (event index, kind), plus per-kind
counts; nothing is kept per event.  The bounds rule for an access of
s bytes at untagged address p with object base b and raw size z:

    p <  b            -> underflow (protects the header as well)
    p + s - 1 > b+z-1 -> overflow
    otherwise         -> ok

One-past-end pointers still resolve because the wrapper frame was
computed with fake padding, so the overflow is reported with the right
referent instead of being lost.

The arithmetic check is a pure bit test that two addresses share a
frame; it needs no metadata and tolerates pointers into the padding.
Pointers that leave the frame lose their referent, which is exactly
what it reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arena import Arena
from .frame_math import SLOT_BITS, in_frame
from .tagging import MAX_BIG_TAG, MIN_BIG_TAG, TagError, decode, is_untagged, untag
from .verdicts import Verdict, VerdictKind


@dataclass(frozen=True)
class AccessRequest:
    """One pending dereference: pointer and width in bytes."""

    tagged: int
    access_size: int

    def __post_init__(self) -> None:
        if self.access_size < 1:
            raise ValueError("access size must be at least 1")


@dataclass
class CheckCounters:
    access_checks: int = 0
    arith_checks: int = 0
    lookups_small: int = 0
    lookups_big: int = 0


class Checker:
    """Read-only verifier over an arena's metadata."""

    def __init__(self, arena: Arena):
        self.arena = arena
        self.counters = CheckCounters()

    def _check(self, tagged: int, size: int, operand: str | None = None) -> Verdict:
        """Bounds verdict for size bytes at a tagged pointer.

        Arena.lookup classifies the pointer and supplies the record;
        operand labels violations of a two-pointer check.
        """
        counters = self.counters
        counters.access_checks += 1
        kind, record = self.arena.lookup(tagged)
        # record first: enum attribute reads are slow and this is the hot path
        if record is None and kind is VerdictKind.UNTRACKED:
            return Verdict(kind, address=tagged)
        if tagged >> 63:
            counters.lookups_small += 1
        else:
            counters.lookups_big += 1
        addr = untag(tagged)
        if record is None:
            # out of frame, or a vacated entry (released big-framed object)
            return Verdict(kind or VerdictKind.USE_AFTER_FREE, address=addr,
                           operand=operand)
        obj_base = record.obj_base
        if addr < obj_base:
            kind = VerdictKind.UNDERFLOW
        elif addr + size > obj_base + record.raw_size:
            kind = VerdictKind.OVERFLOW
        else:
            return Verdict(VerdictKind.OK, address=addr, alloc_id=record.id)
        return Verdict(kind, address=addr, alloc_id=record.id, operand=operand)

    # -- checks -------------------------------------------------------

    def check_access(self, req: AccessRequest) -> Verdict:
        """Verify one load or store; untracked addresses pass unchecked.

        The verdict's address is the untagged one, for the caller to use.
        """
        return self._check(req.tagged, req.access_size)

    def check_arith(self, old: int, new: int) -> Verdict:
        """Frame-escape test for a pointer arithmetic step.

        No metadata is touched: the new value is fine as long as it
        shares the old value's wrapper frame (the slot, for small-
        framed objects).  Pointers into the fake padding pass here and
        only fail if dereferenced.
        """
        self.counters.arith_checks += 1
        if is_untagged(old):
            return Verdict(VerdictKind.UNTRACKED, address=untag(new))
        flag, tag, old_addr = decode(old)
        if flag:
            n = SLOT_BITS
        elif MIN_BIG_TAG <= tag <= MAX_BIG_TAG:
            n = tag
        else:
            raise TagError(f"value {old:#x} carries no resolvable tag")
        new_addr = untag(new)
        if in_frame(old_addr, new_addr, n):
            return Verdict(VerdictKind.OK, address=new_addr)
        return Verdict(VerdictKind.OUT_OF_FRAME, address=new_addr)

    def check_memcpy(self, dst: int, src: int, n: int) -> Verdict:
        """Both operands of an n-byte copy, destination judged first."""
        if n < 0:
            raise ValueError("byte count must be non-negative")
        if n == 0:
            return Verdict(VerdictKind.OK)
        dst_v = self._check(dst, n, "dst")
        if dst_v.is_violation:
            return dst_v
        src_v = self._check(src, n, "src")
        if src_v.is_violation:
            return src_v
        if dst_v.kind is VerdictKind.UNTRACKED and src_v.kind is VerdictKind.UNTRACKED:
            return Verdict(VerdictKind.UNTRACKED)
        return Verdict(VerdictKind.OK)

    # bounded string copy: both arrays must hold at least n bytes, which
    # is exactly the memcpy rule
    check_strncpy = check_memcpy

    def check_memset(self, dst: int, n: int) -> Verdict:
        """Single-operand variant of the copy check (n-byte fill)."""
        if n < 0:
            raise ValueError("byte count must be non-negative")
        if n == 0:
            return Verdict(VerdictKind.OK)
        return self._check(dst, n, "dst")

    def check_strcpy(self, dst: int, src: int, src_strlen: int) -> Verdict:
        """String copy up to the terminator.

        Safe iff the destination can hold src_strlen bytes plus the
        terminator from the destination address onward.  The source is
        never bounds-checked: copying stops at its terminator
        regardless of the source array's size.
        """
        if src_strlen < 0:
            raise ValueError("string length must be non-negative")
        return self._check(dst, src_strlen + 1, "dst")

    def check_free(self, tagged: int) -> Verdict:
        """Deallocation check and release, delegated to the arena."""
        return self.arena.free(tagged)
