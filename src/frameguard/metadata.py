"""Per-object headers and the supplementary division table.

Every tracked object carries a 16-byte header directly below its base:
the raw (requested) size and an opaque type id, padded to 16 bytes.
Small-framed objects need nothing else; the pointer tag already encodes
the header's slot offset.  Big-framed objects additionally get one
entry in the division table.

The table divides the arena into 2**16-byte divisions and keeps one
48-entry array per division.  Entry i of a division's array serves the
(16+i)-frame based at that division (or, in the first division, below
the arena base) and holds the header address of the single live object
wrapped by that frame, or zero when vacant.  Zero doubles as the
release marker, which is what makes double frees and use-after-free of
big-framed objects observable; a small-framed object has no entry, and
its release clears the header the arena stores instead.  The full table is virtual, reserved and
never allocated: only entries ever set are stored.  Callers name an
entry by its frame (addr, n) when they set it, and set_entry returns
the entry's key; release names the entry by that key, so vacating it
does no frame math.  Only entry_index knows the table layout.

DivisionTable.header_lookup is the only code that turns a tagged
pointer into a header address, and Arena._resolve is its only caller:
it decides what the resolved header means for the pointer, the id of
a live allocation or an outcome.  Checker.check_access, which the copy
checks also go through, the arena's free and realloc, and Arena.lookup
all call Arena._resolve, so the slot arithmetic, the entry read and
their interpretation are written once.
"""

from __future__ import annotations

from .frame_math import ADDRESS_MASK, SLOT_SIZE
from .messages import cut
# decode is unused, kept only because perfbench/layers.py patches it here
from .tagging import MAX_BIG_TAG, MIN_BIG_TAG, TAG_MASK, TAG_SHIFT, TagError, decode  # noqa: F401

HEADER_SIZE = 16                 # bytes per header, kept 16-aligned
DIVISION_BITS = MIN_BIG_TAG      # a division spans the smallest big frame
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


def check_header_fields(size: int, type_id: int = 0) -> None:
    """Reject a size outside [1, 2**32) or a type id outside [0, 2**32)."""
    if size < 1:
        raise ValueError("allocation size must be at least 1")
    if size > _U32_MAX:
        raise ValueError(f"header size {cut(size)} not a 32-bit value")
    if not 0 <= type_id <= _U32_MAX:
        raise ValueError(f"type id {cut(type_id)} not a 32-bit value")


class DivisionTable:
    """Arena-wide 48-entry division arrays; only entries ever set are stored."""

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
        self._entries: dict[int, int] = {}   # entry_index key -> header

    def entry_index(self, addr: int, n: int) -> int:
        """Key of the entry serving the n-frame around untagged addr.

        The frame base falls out of zeroing the low n bits; the entry
        lies in its division, or in the first division for a frame that
        begins below the arena base but holds arena bytes (the base is
        2**16-aligned, so no other n-frame begins there).  The slot is
        n - 16.  A frame that holds no arena byte raises ArenaRangeError;
        a log outside [MIN_BIG_TAG, MAX_BIG_TAG] is no big tag: TagError.
        """
        if not MIN_BIG_TAG <= n <= MAX_BIG_TAG:
            raise TagError(f"frame log {n} outside [{MIN_BIG_TAG}, {MAX_BIG_TAG}]")
        framebase = addr & -(1 << n)
        division = (framebase - self.arena_base) >> DIVISION_BITS
        if division < 0:
            if framebase + (1 << n) <= self.arena_base:
                raise ArenaRangeError(
                    f"frame base {framebase:#x} below arena base {self.arena_base:#x}")
            division = 0
        if division >= self.division_count:
            raise ArenaRangeError(f"frame base {framebase:#x} beyond the arena")
        return division * ENTRIES_PER_DIVISION + n - DIVISION_BITS

    def get_entry(self, addr: int, n: int) -> int:
        return self._entries.get(self.entry_index(addr, n), 0)

    def set_entry(self, addr: int, n: int, header_addr: int) -> int:
        """Record a big-framed object's header and return the entry's
        key; the entry must be vacant."""
        key = self.entry_index(addr, n)
        occupant = self._entries.get(key, 0)
        if occupant:
            raise EntryConflictError(f"entry {divmod(key, ENTRIES_PER_DIVISION)} already holds "
                                     f"header {occupant:#x}; refused {header_addr:#x}")
        self._entries[key] = header_addr
        return key

    def reset_entry(self, key: int) -> int:
        """Vacate the entry set_entry keyed and return its prior content
        (zero if already vacant)."""
        prior = self._entries.get(key, 0)
        if prior:
            # a never-set entry stays absent and out of touched_bytes
            self._entries[key] = 0
        return prior

    def header_lookup(self, tagged: int) -> int:
        """Header address for a tagged pointer.

        flag 1: slot base plus the tagged offset, pure arithmetic.
        flag 0 with tag in [16, 48]: the division-array entry content;
        zero means the frame's object was released (or never existed).
        A frame that holds no arena byte raises ArenaRangeError: the
        pointer left its wrapper frame.  Untagged values are the
        caller's job to filter; malformed tags raise TagError.
        """
        addr = tagged & ADDRESS_MASK
        if tagged >> 63:
            return (addr & -SLOT_SIZE) + ((tagged >> TAG_SHIFT) & TAG_MASK)
        # flag clear: all 16 top bits are the tag, which entry_index checks
        return self._entries.get(self.entry_index(addr, tagged >> TAG_SHIFT), 0)

    @property
    def reserved_bytes(self) -> int:
        """Virtual footprint of the whole table: reserved, never allocated."""
        return self.division_count * ENTRIES_PER_DIVISION * ENTRY_BYTES

    @property
    def touched_bytes(self) -> int:
        """Footprint of division arrays that ever held an entry (paged in once used)."""
        divisions = {idx // ENTRIES_PER_DIVISION for idx in self._entries}
        return len(divisions) * ENTRIES_PER_DIVISION * ENTRY_BYTES
