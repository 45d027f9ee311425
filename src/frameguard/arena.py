"""Simulated 48-bit arena with a tracking bump allocator.

The arena owns placement and the allocation lifecycle: it writes a
16-byte header below each object, computes the wrapper frame over the
whole region (header through object end plus the fake padding), tags
the returned pointer, and keeps the division table current: it sets a
big-framed object's entry by its frame and keeps the key set_entry
returns, so release vacates the entry with no frame math.  The fake
padding is imaginary: it widens the frame so one-past-end pointers stay
resolvable, but consumes no storage and may overlap a neighbour.

Placement is a 16-aligned bump cursor, optionally with randomized gaps
to exercise arbitrary object arrangements; one private step,
_register, places, frames, tags and records an allocation, moving the
cursor last so a refused one leaves no trace.  It is the only code that
mints a tag.  Addresses are never reused.  A new allocation joins the
innermost open lexical scope, a moved one its old allocation's scope,
and release takes it out, so an open scope holds only live ones.

Allocation state is one store of typed columns indexed by id, ids
counting allocations from 1 (the columns start at the first, row 0
unused): raw size and type id in array('I'), tagged pointer and table
key in array('Q'), frame log n in a bytearray, open scope in a list.
_by_header maps each header address to its id.  Release clears the
header for both frame classes: a big-framed release vacates its
division-table entry and drops the address, and a small-framed one
leaves id 0 there, a cleared header that slot arithmetic still finds,
as a heap poisoned on free would.  An AllocationRecord is a value built
from a row on request.  Arena.stats reads running totals.  _resolve is
the one place a pointer's outcome is decided; Arena.lookup, the checker
and the deallocation paths read it as it is, and _refusal writes the
verdict that refuses a deallocation.
metadata.check_header_fields states the header size rule once for
alloc, alloc_array and realloc.

Violations on the deallocation paths come back as verdicts rather than
exceptions, so a replay run can continue after errors.  Exceptions are
reserved for misuse of the API itself and for arena exhaustion.
"""

from __future__ import annotations

import random
from array import array
from typing import NamedTuple

from .frame_math import ADDRESS_MASK, SLOT_BITS, SLOT_SIZE, WrapperFrame, wrapper_frame
from .metadata import HEADER_SIZE, ArenaRangeError, DivisionTable, check_header_fields
# decode is imported only so the traced benchmark run (perfbench/layers.py)
# finds the name it patches in this module
from .tagging import FLAG_BIT, TAG_SHIFT, decode  # noqa: F401
from .verdicts import DOUBLE_FREE, OK, OUT_OF_FRAME, UNTRACKED, Verdict, VerdictKind

DEFAULT_ARENA_BASE = 1 << 44          # 0x0000_1000_0000_0000
DEFAULT_ARENA_SIZE = 1 << 28
DEFAULT_PAD_BYTES = 1                 # FRAMER's fake padding: one-past-end pointers resolve

_new = tuple.__new__    # builds a named tuple without its Python-level __new__


class ArenaExhausted(RuntimeError):
    """The bump cursor ran past the end of the arena."""


class AllocationRecord(NamedTuple):
    """One allocation's row when the record was built: a value, equal by its fields.

    key is the division-table key set_entry returned for a big-framed
    allocation, and 0 for a small-framed one (0 is also a real key, so
    n, not key, tells the classes apart).  The header address is
    derived: it always sits HEADER_SIZE bytes below the object base.
    """

    id: int
    key: int
    obj_base: int
    raw_size: int
    n: int          # log2 of the wrapper frame size
    tagged: int
    type_id: int

    @property
    def header_addr(self) -> int:
        return self.obj_base - HEADER_SIZE

    @property
    def frame(self) -> WrapperFrame:
        """The wrapper frame, rebuilt from n: it is aligned by its size
        and begins at or below the header."""
        return WrapperFrame(self.n, self.header_addr & -(1 << self.n))

    @property
    def is_small(self) -> bool:
        return self.n <= SLOT_BITS


def _refusal(found: VerdictKind | int, tagged: int) -> Verdict:
    """The verdict refusing a deallocation that _resolve found no live
    allocation for: double free once the object was released, else its kind."""
    return _new(Verdict, (found or DOUBLE_FREE, tagged & ADDRESS_MASK, None, None))


class Arena:
    def __init__(
        self,
        base: int = DEFAULT_ARENA_BASE,
        size: int = DEFAULT_ARENA_SIZE,
        pad_bytes: int = DEFAULT_PAD_BYTES,
        placement_jitter: int = 0,
        rng: random.Random | None = None,
    ):
        if pad_bytes < 0:
            raise ValueError("pad_bytes must be non-negative")
        if placement_jitter < 0:
            raise ValueError("placement_jitter must be non-negative")
        if placement_jitter and rng is None:
            raise ValueError("placement_jitter needs an rng to draw gaps from")
        self.table = DivisionTable(base, size)
        self.base = base
        self.size = size
        self.pad_bytes = pad_bytes
        self._jitter = placement_jitter
        self._rng = rng
        self._cursor = base
        # header addresses are never reused, so insertion order is
        # allocation order; a released small-framed header holds id 0
        self._by_header: dict[int, int] = {}
        # running totals for stats(); the last is also the last id
        self._payload = self._live = self._allocations = 0
        self._scopes: list[dict[int, None]] = []    # open scopes' live ids, innermost last

    # -- placement ----------------------------------------------------

    def _register(self, raw_size: int, total_bytes: int, type_id: int,
                  scope: dict[int, None] | None) -> AllocationRecord:
        """Place total_bytes at the cursor, then frame, tag and record
        the allocation; the cursor moves only once nothing refused it.
        The table keeps obj_base inside the 48-bit space, a small frame
        keeps the header in its slot, and set_entry range-checks n."""
        cursor = self._cursor
        if self._jitter:
            cursor += 16 * self._rng.randrange(self._jitter + 1)
        header_addr = (cursor + 15) & ~15
        end = header_addr + total_bytes
        if end > self.base + self.size:
            raise ArenaExhausted(f"arena exhausted: need {total_bytes} bytes at {header_addr:#x}, "
                                 f"arena ends at {self.base + self.size:#x}")
        obj_base = header_addr + HEADER_SIZE
        n = wrapper_frame(header_addr, end - 1 + self.pad_bytes).n
        if n <= SLOT_BITS:
            tagged = FLAG_BIT | (header_addr & (SLOT_SIZE - 1)) << TAG_SHIFT | obj_base
            key = 0
        else:
            key = self.table.set_entry(obj_base, n, header_addr)
            tagged = n << TAG_SHIFT | obj_base
        self._cursor = end
        alloc_id = self._allocations = self._allocations + 1
        if alloc_id == 1:
            self._raw_size, self._type_id, self._tagged, self._key = map(array, "IIQQ", [(0,)] * 4)
            self._n, self._scope = bytearray(1), [None]
        self._payload += raw_size
        self._live += 1
        self._raw_size.append(raw_size)
        self._type_id.append(type_id)
        self._tagged.append(tagged)
        self._key.append(key)
        self._n.append(n)
        self._scope.append(scope)
        self._by_header[header_addr] = alloc_id
        if scope is not None:
            scope[alloc_id] = None
        return _new(AllocationRecord, (alloc_id, key, obj_base, raw_size, n, tagged, type_id))

    def _record(self, alloc_id: int) -> AllocationRecord:
        tagged = self._tagged[alloc_id]
        return _new(AllocationRecord, (alloc_id, self._key[alloc_id], tagged & ADDRESS_MASK,
                                       self._raw_size[alloc_id], self._n[alloc_id], tagged,
                                       self._type_id[alloc_id]))

    # -- lifecycle ----------------------------------------------------

    def alloc(self, size: int, type_id: int = 0) -> AllocationRecord:
        """Allocate size bytes behind a fresh header; returns the record.

        The tagged pointer (record.tagged) addresses the object base,
        which always sits HEADER_SIZE bytes above the header.
        """
        check_header_fields(size, type_id)
        return self._register(size, HEADER_SIZE + size, type_id, (self._scopes or (None,))[-1])

    def alloc_array(self, count: int, elem_size: int, type_id: int = 0) -> AllocationRecord:
        """Allocate count elements plus the minimum extra elements that
        hold the header.

        When the element size does not divide 16, the extra elements
        leave spare bytes; those land after the object's last element
        and stay outside the checked size, which is count * elem_size.
        """
        if count < 1 or elem_size < 1:
            raise ValueError("element count and size must be at least 1")
        extra = -(-HEADER_SIZE // elem_size)
        total = (count + extra) * elem_size
        raw_size = count * elem_size
        check_header_fields(raw_size, type_id)
        return self._register(raw_size, total, type_id, (self._scopes or (None,))[-1])

    def realloc(self, tagged: int, new_size: int) -> tuple[Verdict, AllocationRecord | None]:
        """Move an allocation to a fresh region of new_size bytes.

        The wrapper frame is recomputed from scratch at the new
        placement and the old header is cleared, as free clears it.  The
        input is judged as free judges it: a stale pointer yields a
        double-free verdict, one that left its frame an out-of-frame
        verdict, and neither reallocates.  A size the header cannot
        hold raises before the pointer is judged.
        """
        check_header_fields(new_size)
        found = self._resolve(tagged)
        if found.__class__ is not int or not found:
            return _refusal(found, tagged), None
        new = self._register(new_size, HEADER_SIZE + new_size, self._type_id[found],
                             self._scope[found])
        # payload would be copied up to min(old, new) here; contents are
        # not modelled, only geometry and metadata
        self._release(found)
        return _new(Verdict, (OK, new.obj_base, new.id, None)), new

    def free(self, tagged: int) -> Verdict:
        """Release through the hidden base (the header address); a
        vacated entry or a cleared header is the double-free signal."""
        found = self._resolve(tagged)
        if found.__class__ is not int or not found:
            return _refusal(found, tagged)
        self._release(found)
        return _new(Verdict, (OK, tagged & ADDRESS_MASK, found, None))

    def scope_begin(self) -> None:
        """Open an empty scope inside the open ones; it is innermost until its scope_end."""
        self._scopes.append({})

    def scope_end(self) -> None:
        """Close the innermost scope, releasing the live allocations it holds; IndexError if none."""
        for alloc_id in list(self._scopes.pop()):
            self._release(alloc_id)

    # -- resolution ---------------------------------------------------

    def _resolve(self, tagged: int) -> int | VerdictKind:
        """What a pointer resolves to, by the header its tag names.

        UNTRACKED for a plain address; OUT_OF_FRAME when the pointer left
        its wrapper frame; otherwise the id of the live allocation at the
        resolved header, or 0 once its object was released, for either
        frame class.  Every lookup, check and deallocation reads it.
        """
        if not tagged >> TAG_SHIFT:
            return UNTRACKED
        try:
            alloc_id = self._by_header.get(self.table.header_lookup(tagged))
        except ArenaRangeError:
            # the frame holds no arena byte
            return OUT_OF_FRAME
        if alloc_id is None:
            # a vacated entry, or a small-framed pointer out of its slot:
            # anywhere in it the slot arithmetic finds a header, live or cleared
            return OUT_OF_FRAME if tagged >> 63 else 0
        return alloc_id

    def lookup(self, tagged: int) -> AllocationRecord | VerdictKind | None:
        """_resolve's answer, with the live allocation's record for an id and None for 0."""
        found = self._resolve(tagged)
        return self._record(found) if found.__class__ is int and found else found or None

    def _release(self, alloc_id: int) -> None:
        """Clear the header: a big frame's entry and address go; a small header holds id 0."""
        header_addr = (self._tagged[alloc_id] & ADDRESS_MASK) - HEADER_SIZE
        if self._n[alloc_id] > SLOT_BITS:
            self.table.reset_entry(self._key[alloc_id])
            del self._by_header[header_addr]
        else:
            self._by_header[header_addr] = 0
        scope = self._scope[alloc_id]
        if scope is not None:
            del scope[alloc_id]
            self._scope[alloc_id] = None
        self._live -= 1

    @property
    def records(self) -> list[AllocationRecord]:
        """The live allocations' records in allocation order."""
        return [self._record(alloc_id) for alloc_id in self._by_header.values() if alloc_id]

    def stats(self) -> dict[str, int]:
        """Live and cumulative totals, kept as allocations are made and
        released: the dict a run report keeps as live_stats."""
        live = self._live
        return dict(live_allocations=live, live_header_bytes=HEADER_SIZE * live,
                    table_reserved_bytes=self.table.reserved_bytes,
                    table_touched_bytes=self.table.touched_bytes,
                    total_allocations=self._allocations, total_payload_bytes=self._payload,
                    cursor_used_bytes=self._cursor - self.base)
