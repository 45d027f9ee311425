"""Simulated 48-bit arena with a tracking bump allocator.

The arena owns placement and the allocation lifecycle: it writes a
16-byte header below each object, computes the wrapper frame over the
whole region (header through object end plus the fake padding), tags
the returned pointer, and keeps the division table current, naming a
big-framed object's entry by its frame alone.  The fake padding is
imaginary: it widens the frame so one-past-end pointers stay
resolvable, but consumes no storage and may overlap a neighbour.

Placement is a 16-aligned bump cursor, optionally with randomized gaps
to exercise arbitrary object arrangements; one private step places,
frames, tags and records an allocation, moving the cursor last so a
refused one leaves no trace.  Addresses are never reused, so headers
of released objects linger as stale bytes would in a real heap; that
matches what the checks can and cannot see afterwards.

Each allocation has one AllocationRecord, keyed by its header address
in the only record store; the record holds what the header bytes hold
(raw size and type id), and Arena.stats sums the store into the dict of
totals a run report keeps.  Arena.lookup is the one place a pointer's
outcome is decided (untracked, out of frame, or the record at its
header); the checker and the deallocation paths both build on it.
metadata.check_header_fields states the header size rule once for
alloc, alloc_array and realloc.

Violations on the deallocation paths come back as verdicts rather than
exceptions, so a replay run can continue after errors.  Exceptions are
reserved for misuse of the API itself and for arena exhaustion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .frame_math import ADDRESS_MASK, SLOT_BITS, WrapperFrame, wrapper_frame
from .metadata import HEADER_SIZE, ArenaRangeError, DivisionTable, check_header_fields
# decode is imported only so the traced benchmark run (perfbench/layers.py)
# finds the name it patches in this module
from .tagging import TAG_SHIFT, decode, encode_big, encode_small  # noqa: F401
from .verdicts import DOUBLE_FREE, OK, OUT_OF_FRAME, UNTRACKED, Verdict, VerdictKind

DEFAULT_ARENA_BASE = 1 << 44          # 0x0000_1000_0000_0000
DEFAULT_ARENA_SIZE = 1 << 28
DEFAULT_PAD_BYTES = 1                 # FRAMER's fake padding: one-past-end pointers resolve


class ArenaExhausted(RuntimeError):
    """The bump cursor ran past the end of the arena."""


@dataclass(slots=True)
class AllocationRecord:
    """Bookkeeping for one allocation, live or dead."""

    id: int
    header_addr: int
    obj_base: int
    raw_size: int
    frame: WrapperFrame
    tagged: int
    type_id: int = 0
    live: bool = True
    scope_id: int | None = None

    @property
    def is_small(self) -> bool:
        return self.frame.n <= SLOT_BITS


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
        # allocation order and ids number the records from 1
        self._by_header: dict[int, AllocationRecord] = {}

    # -- placement ----------------------------------------------------

    def _register(self, raw_size: int, total_bytes: int, type_id: int,
                  scope_id: int | None) -> AllocationRecord:
        """Place total_bytes at the cursor, then frame, tag and record
        the allocation; the cursor moves only once nothing refused it."""
        cursor = self._cursor
        if self._jitter:
            cursor += 16 * self._rng.randrange(self._jitter + 1)
        header_addr = (cursor + 15) & ~15
        end = header_addr + total_bytes
        if end > self.base + self.size:
            raise ArenaExhausted(f"arena exhausted: need {total_bytes} bytes at {header_addr:#x}, "
                                 f"arena ends at {self.base + self.size:#x}")
        obj_base = header_addr + HEADER_SIZE
        frame = wrapper_frame(header_addr, end - 1 + self.pad_bytes)
        if frame.n <= SLOT_BITS:
            tagged = encode_small(header_addr, obj_base)
        else:
            self.table.set_entry(obj_base, frame.n, header_addr)
            tagged = encode_big(frame.n, obj_base)
        self._cursor = end
        record = AllocationRecord(len(self._by_header) + 1, header_addr, obj_base, raw_size,
                                  frame, tagged, type_id, True, scope_id)
        self._by_header[header_addr] = record
        return record

    # -- lifecycle ----------------------------------------------------

    def alloc(self, size: int, type_id: int = 0, scope_id: int | None = None) -> AllocationRecord:
        """Allocate size bytes behind a fresh header; returns the record.

        The tagged pointer (record.tagged) addresses the object base,
        which always sits HEADER_SIZE bytes above the header.
        """
        check_header_fields(size, type_id)
        return self._register(size, HEADER_SIZE + size, type_id, scope_id)

    def alloc_array(self, count: int, elem_size: int, type_id: int = 0,
                    scope_id: int | None = None) -> AllocationRecord:
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
        return self._register(raw_size, total, type_id, scope_id)

    def realloc(self, tagged: int, new_size: int) -> tuple[Verdict, AllocationRecord | None]:
        """Move an allocation to a fresh region of new_size bytes.

        The wrapper frame is recomputed from scratch at the new
        placement and the old big-frame entry (if any) is vacated.  The
        input is judged as free judges it: a stale pointer yields a
        double-free verdict, one that left its frame an out-of-frame
        verdict, and neither reallocates.  A size the header cannot
        hold raises before the pointer is judged.
        """
        check_header_fields(new_size)
        fail, old = self._resolve_live(tagged)
        if fail is not None:
            return fail, None
        new = self._register(new_size, HEADER_SIZE + new_size, old.type_id, old.scope_id)
        # payload would be copied up to min(old, new) here; contents are
        # not modelled, only geometry and metadata
        self._release(old)
        return Verdict(OK, address=new.obj_base, alloc_id=new.id), new

    def free(self, tagged: int) -> Verdict:
        """Release through the hidden base (the header address).

        Big-framed: a vacated entry is the double-free signal.
        Small-framed liveness is judged from the allocation record, an
        extension past what the entry mechanism alone can see.
        """
        fail, record = self._resolve_live(tagged)
        if fail is not None:
            return fail
        self._release(record)
        return Verdict(OK, tagged & ADDRESS_MASK, record.id)

    def scope_end(self, records: list[AllocationRecord]) -> None:
        """Epilogue for a closing scope: vacate big-frame entries and
        mark the scope's records dead."""
        for record in records:
            if record.live:
                self._release(record)

    # -- resolution ---------------------------------------------------

    def lookup(self, tagged: int) -> tuple[VerdictKind | None, AllocationRecord | None]:
        """Classify a pointer by the header its tag resolves to.

        (UNTRACKED, None) for a plain address; (OUT_OF_FRAME, None) when
        the pointer left its wrapper frame; otherwise (None, the record
        at the resolved header), where None is a vacated big-frame entry.
        Callers judge bounds and liveness from the record.
        """
        if not tagged >> TAG_SHIFT:
            return UNTRACKED, None
        try:
            record = self._by_header.get(self.table.header_lookup(tagged))
        except ArenaRangeError:
            # the frame holds no arena byte
            return OUT_OF_FRAME, None
        if record is None and tagged >> 63:
            # anywhere in its own slot a small-framed pointer finds its
            # header, live or dead; no header means it left the slot
            return OUT_OF_FRAME, None
        return None, record

    def _resolve_live(self, tagged: int) -> tuple[Verdict | None, AllocationRecord | None]:
        """(failing verdict, None) or (None, live record) for a pointer
        handed to a deallocation path."""
        kind, record = self.lookup(tagged)
        if kind is None and (record is None or not record.live):
            kind = DOUBLE_FREE
        if kind is not None:
            return Verdict(kind, address=tagged & ADDRESS_MASK,
                           alloc_id=record.id if record else None), None
        return None, record

    def _release(self, record: AllocationRecord) -> None:
        n = record.frame.n
        if n > SLOT_BITS:
            self.table.reset_entry(record.obj_base, n)
        record.live = False
        # the header bytes stay in place, as they would in a real heap

    @property
    def records(self) -> list[AllocationRecord]:
        """Every allocation record, live or dead, in allocation order."""
        return list(self._by_header.values())

    def stats(self) -> dict[str, int]:
        """Live and cumulative totals: the dict a run report keeps as live_stats."""
        live = payload = 0
        for record in self._by_header.values():
            live += record.live
            payload += record.raw_size
        return dict(live_allocations=live, live_header_bytes=HEADER_SIZE * live,
                    table_reserved_bytes=self.table.reserved_bytes,
                    table_touched_bytes=self.table.touched_bytes,
                    total_allocations=len(self._by_header), total_payload_bytes=payload,
                    cursor_used_bytes=self._cursor - self.base)
