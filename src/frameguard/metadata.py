"""Per-object headers and the supplementary division table.

Every tracked object carries a 16-byte header directly below its base:
the raw (requested) size and an opaque type id, padded to 16 bytes.
Small-framed objects need nothing else; the pointer tag already encodes
the header's slot offset.  Big-framed objects additionally get one
entry in the division table.

The table divides the arena into 2**16-byte divisions and keeps one
48-entry array per division.  Entry i of a division's array serves the
(16+i)-frame based at that division and holds the header address of the
single live object wrapped by that frame, or zero when vacant.  Zero
doubles as the release marker, which is what makes double frees and
use-after-free of big-framed objects observable.

DivisionTable.header_lookup is the only code that turns a tagged
pointer into a header address.  The arena's free and realloc and the
checker's access checks all resolve through it, so the slot arithmetic
and the entry read are written once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .frame_math import ADDRESS_MASK, slot_base
from .tagging import MAX_BIG_TAG, MIN_BIG_TAG, TagError, decode

HEADER_SIZE = 16                 # bytes per header, kept 16-aligned
DIVISION_BITS = 16
DIVISION_SIZE = 1 << DIVISION_BITS
ENTRIES_PER_DIVISION = 48        # frame logs 16..63; logs above 48 stay vacant
ENTRY_BYTES = 8                  # each entry holds a full header address

_U32_MAX = (1 << 32) - 1


class ArenaRangeError(ValueError):
    """Address resolves to a frame outside the table's arena."""


class EntryConflictError(RuntimeError):
    """Two live big-framed objects resolved to the same entry.

    Unreachable for disjoint allocations with one byte of fake padding;
    raised rather than overwritten so the geometry bug is loud.
    """


def check_header_fields(size: int, type_id: int) -> None:
    """Reject a size or type id that does not fit its 32-bit header field."""
    if not 0 <= size <= _U32_MAX:
        raise ValueError(f"header size {size} not a 32-bit value")
    if not 0 <= type_id <= _U32_MAX:
        raise ValueError(f"type id {type_id} not a 32-bit value")


@dataclass(frozen=True)
class Header:
    """16-byte metadata record stored immediately below the object."""

    size: int
    type_id: int = 0

    def __post_init__(self) -> None:
        check_header_fields(self.size, self.type_id)


class DivisionTable:
    """Arena-wide array of 48-entry division arrays, eagerly allocated."""

    def __init__(self, arena_base: int, arena_size: int):
        if arena_base <= 0:
            raise ValueError("arena base must be nonzero (zero is the vacancy marker)")
        if arena_base % DIVISION_SIZE:
            raise ValueError(f"arena base {arena_base:#x} not aligned by {DIVISION_SIZE:#x}")
        if arena_size < 0 or arena_size % DIVISION_SIZE:
            raise ValueError(f"arena size {arena_size:#x} not a multiple of {DIVISION_SIZE:#x}")
        if arena_base + arena_size - 1 > ADDRESS_MASK:
            raise ValueError("arena extends beyond the 48-bit space")
        self.arena_base = arena_base
        self.arena_size = arena_size
        self.division_count = arena_size >> DIVISION_BITS
        self._entries = array("Q", bytes(ENTRY_BYTES * ENTRIES_PER_DIVISION * self.division_count))
        self._touched: set[int] = set()

    def entry_index(self, addr: int, n: int) -> tuple[int, int]:
        """(division, slot) serving the n-frame around untagged addr.

        The frame base falls out of zeroing the low n bits; its
        division is the frame base's distance from the arena base in
        2**16 units, and the slot within the division array is n - 16.
        """
        if not MIN_BIG_TAG <= n <= MAX_BIG_TAG:
            raise ValueError(f"frame log {n} outside [{MIN_BIG_TAG}, {MAX_BIG_TAG}]")
        framebase = addr & ~((1 << n) - 1)
        if framebase < self.arena_base:
            raise ArenaRangeError(f"frame base {framebase:#x} below arena base {self.arena_base:#x}")
        division = (framebase - self.arena_base) >> DIVISION_BITS
        if division >= self.division_count:
            raise ArenaRangeError(f"frame base {framebase:#x} beyond the arena")
        return division, n - DIVISION_BITS

    def get_entry(self, division: int, slot: int) -> int:
        return self._entries[division * ENTRIES_PER_DIVISION + slot]

    def set_entry(self, division: int, slot: int, header_addr: int) -> None:
        """Record a big-framed object's header; the entry must be vacant."""
        idx = division * ENTRIES_PER_DIVISION + slot
        occupant = self._entries[idx]
        if occupant:
            raise EntryConflictError(
                f"entry ({division}, {slot}) already holds header {occupant:#x}; "
                f"refused {header_addr:#x}"
            )
        self._entries[idx] = header_addr
        self._touched.add(division)

    def reset_entry(self, division: int, slot: int) -> int:
        """Vacate an entry and return its prior content (zero if already vacant)."""
        idx = division * ENTRIES_PER_DIVISION + slot
        prior = self._entries[idx]
        self._entries[idx] = 0
        return prior

    def header_lookup(self, tagged: int) -> int:
        """Header address for a tagged pointer.

        flag 1: slot base plus the tagged offset, pure arithmetic.
        flag 0 with tag in [16, 48]: the division-array entry content;
        zero means the frame's object was released (or never existed).
        A frame base outside the arena raises ArenaRangeError: the
        pointer left its wrapper frame.  Untagged values are the
        caller's job to filter; malformed tags raise TagError.
        """
        flag, tag, addr = decode(tagged)
        if flag:
            return slot_base(addr) + tag
        if not MIN_BIG_TAG <= tag <= MAX_BIG_TAG:
            raise TagError(f"value {tagged:#x} carries no resolvable tag")
        division, slot = self.entry_index(addr, tag)
        return self.get_entry(division, slot)

    @property
    def reserved_bytes(self) -> int:
        """Full table footprint; proportional to arena size, not object count."""
        return self.division_count * ENTRIES_PER_DIVISION * ENTRY_BYTES

    @property
    def touched_bytes(self) -> int:
        """Footprint of division arrays that ever held an entry."""
        return len(self._touched) * ENTRIES_PER_DIVISION * ENTRY_BYTES
