"""Runtime verification of tagged-pointer accesses.

check_access is the one statement of the bounds rule.  It takes the
pointer's outcome from Arena._resolve, judges the access against the
arena's column row of the id that returns, and reports any other
outcome as its verdict, a released object as use after free.  The copy
checks and check_memset judge each operand through it, naming it only on a violation.
Checks never raise for bad accesses; a replay run keeps going and keeps
per-kind counts and its violations only, each an event index and a kind
code in two columns; nothing is kept per event.  The bounds rule for an
access of s bytes at untagged address p with object base b and raw size z:

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

from .arena import Arena
from .frame_math import ADDRESS_MASK, SLOT_BITS
# decode is unused, kept only because perfbench/layers.py patches it here
from .tagging import MAX_BIG_TAG, MIN_BIG_TAG, TAG_SHIFT, TagError, decode  # noqa: F401
from .verdicts import OK, OUT_OF_FRAME, OVERFLOW, UNDERFLOW, UNTRACKED, USE_AFTER_FREE, Verdict

_new = tuple.__new__


class AccessRequest:
    """One pending dereference: pointer and width in bytes."""

    __slots__ = ("tagged", "access_size")

    def __init__(self, tagged: int, access_size: int):
        if access_size < 1:
            raise ValueError("access size must be at least 1")
        self.tagged = tagged
        self.access_size = access_size


class Checker:
    """Read-only verifier over an arena's metadata; it counts its checks
    and their small and big header lookups in plain int attributes, and
    access_checks sums the untracked checks and the two lookup counts."""

    def __init__(self, arena: Arena):
        self.arena = arena
        self.untracked_checks = self.arith_checks = self.lookups_small = self.lookups_big = 0

    @property
    def access_checks(self) -> int:
        return self.untracked_checks + self.lookups_small + self.lookups_big

    # -- checks -------------------------------------------------------

    def check_access(self, req: AccessRequest) -> Verdict:
        """Bounds verdict for one load or store; untracked addresses pass
        unchecked.  The verdict's address is the untagged one."""
        tagged = req.tagged
        arena = self.arena
        found = arena._resolve(tagged)
        if found is UNTRACKED:
            self.untracked_checks += 1
            return Verdict(UNTRACKED, tagged)
        if tagged >> 63:
            self.lookups_small += 1
        else:
            self.lookups_big += 1
        addr = tagged & ADDRESS_MASK
        if not found or found is OUT_OF_FRAME:
            return Verdict(found or USE_AFTER_FREE, addr)
        offset = addr - (arena._tagged[found] & ADDRESS_MASK)    # from the object base
        if offset < 0:
            return Verdict(UNDERFLOW, addr, found)
        if offset + req.access_size > arena._raw_size[found]:
            return Verdict(OVERFLOW, addr, found)
        # tuple.__new__ skips the named tuple's Python-level __new__
        return _new(Verdict, (OK, addr, found, None))

    def _operand(self, tagged: int, n: int, operand: str) -> Verdict:
        """check_access of one copy operand, labelled only on a violation."""
        verdict = self.check_access(AccessRequest(tagged, n))
        return verdict._replace(operand=operand) if verdict.is_violation else verdict

    def check_arith(self, old: int, new: int) -> Verdict:
        """Frame-escape test for a pointer arithmetic step.

        No metadata is touched: the new value is fine as long as it
        shares the old value's wrapper frame (the slot, for small-
        framed objects).  Pointers into the fake padding pass here and
        only fail if dereferenced.
        """
        self.arith_checks += 1
        new_addr = new & ADDRESS_MASK
        if not old >> TAG_SHIFT:
            return Verdict(UNTRACKED, new_addr)
        if old >> 63:
            n = SLOT_BITS
        else:
            n = old >> TAG_SHIFT       # the flag is clear: all 16 top bits
            if not MIN_BIG_TAG <= n <= MAX_BIG_TAG:
                raise TagError(f"value {old:#x} carries no resolvable tag")
        if ((old & ADDRESS_MASK) ^ new_addr) >> n:
            return Verdict(OUT_OF_FRAME, new_addr)
        return Verdict(OK, new_addr)

    def check_memcpy(self, dst: int, src: int, n: int) -> Verdict:
        """Both operands of an n-byte copy, destination judged first."""
        if n < 0:
            raise ValueError("byte count must be non-negative")
        if n == 0:
            return Verdict(OK)
        dst_v = self._operand(dst, n, "dst")
        if dst_v.is_violation:
            return dst_v
        src_v = self._operand(src, n, "src")
        if src_v.is_violation:
            return src_v
        if dst_v.kind is UNTRACKED and src_v.kind is UNTRACKED:
            return Verdict(UNTRACKED)
        return Verdict(OK)

    # bounded string copy: both arrays must hold at least n bytes, which
    # is exactly the memcpy rule
    check_strncpy = check_memcpy

    def check_memset(self, dst: int, n: int) -> Verdict:
        """Single-operand variant of the copy check (n-byte fill)."""
        if n < 0:
            raise ValueError("byte count must be non-negative")
        if n == 0:
            return Verdict(OK)
        return self._operand(dst, n, "dst")

    def check_strcpy(self, dst: int, src: int, src_strlen: int) -> Verdict:
        """String copy up to the terminator.

        Safe iff the destination can hold src_strlen bytes plus the
        terminator from the destination address onward.  The source is
        never bounds-checked: copying stops at its terminator
        regardless of the source array's size.
        """
        if src_strlen < 0:
            raise ValueError("string length must be non-negative")
        return self._operand(dst, src_strlen + 1, "dst")

    def check_free(self, tagged: int) -> Verdict:
        """Deallocation check and release, delegated to the arena: a
        library entry point only, since run_trace frees through
        Arena.free itself."""
        return self.arena.free(tagged)
