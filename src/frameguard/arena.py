"""Simulated 48-bit arena with a tracking bump allocator.

The arena owns placement and the allocation lifecycle: it writes a
16-byte header below each object, computes the wrapper frame over the
whole region (header through object end plus the fake padding), tags
the returned pointer, and keeps the division table current.  The fake
padding is imaginary: it widens the frame so one-past-end pointers stay
resolvable, but consumes no storage and may overlap a neighbour.

Placement is a 16-aligned bump cursor, optionally with randomized gaps
to exercise arbitrary object arrangements.  Addresses are never reused,
so headers of released objects linger as stale bytes would in a real
heap; that matches what the checks can and cannot see afterwards.

Each allocation has one AllocationRecord, keyed by its header address;
the record holds what the header bytes hold (raw size and type id).
Deallocation resolves the pointer through DivisionTable.header_lookup,
the single tag-to-header resolver, and then looks up the record.

Violations on the deallocation paths come back as verdicts rather than
exceptions, so a replay run can continue after errors.  Exceptions are
reserved for misuse of the API itself and for arena exhaustion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .frame_math import SLOT_BITS, WrapperFrame, wrapper_frame
from .metadata import (
    HEADER_SIZE,
    ArenaRangeError,
    DivisionTable,
    Header,
    check_header_fields,
)
# decode is imported only so the traced benchmark run (perfbench/layers.py)
# finds the name it patches in this module
from .tagging import decode, encode_big, encode_small, is_untagged, untag  # noqa: F401
from .verdicts import Verdict, VerdictKind

DEFAULT_ARENA_BASE = 1 << 44          # 0x0000_1000_0000_0000
DEFAULT_ARENA_SIZE = 1 << 28

SMALL = "small"
BIG = "big"


class ArenaExhausted(RuntimeError):
    """The bump cursor ran past the end of the arena."""


@dataclass
class AllocationRecord:
    """Bookkeeping for one allocation, live or dead."""

    id: int
    header_addr: int
    obj_base: int
    raw_size: int
    frame: WrapperFrame
    classification: str          # SMALL or BIG
    tagged: int
    type_id: int = 0
    live: bool = True
    scope_id: int | None = None

    @property
    def is_small(self) -> bool:
        return self.classification == SMALL


@dataclass(frozen=True)
class ArenaStats:
    live_allocations: int
    live_header_bytes: int
    live_payload_bytes: int
    table_reserved_bytes: int
    table_touched_bytes: int
    overhead_bytes: int          # 16 * live allocations + reserved table footprint
    total_allocations: int
    total_payload_bytes: int
    cursor_used_bytes: int


class Arena:
    def __init__(
        self,
        base: int = DEFAULT_ARENA_BASE,
        size: int = DEFAULT_ARENA_SIZE,
        pad_bytes: int = 1,
        placement_jitter: int = 0,
        rng: random.Random | None = None,
    ):
        if pad_bytes < 0:
            raise ValueError("pad_bytes must be non-negative")
        if placement_jitter < 0:
            raise ValueError("placement_jitter must be non-negative")
        self.table = DivisionTable(base, size)
        self.base = base
        self.size = size
        self.pad_bytes = pad_bytes
        self._jitter = placement_jitter
        self._rng = rng
        self._cursor = base
        self._by_header: dict[int, AllocationRecord] = {}
        self._records: list[AllocationRecord] = []
        self._next_id = 1
        self._live_count = 0
        self._live_payload = 0
        self._total_payload = 0

    # -- placement ----------------------------------------------------

    def _place(self, total_bytes: int) -> int:
        cursor = self._cursor
        if self._jitter and self._rng is not None:
            cursor += 16 * self._rng.randrange(self._jitter + 1)
        header = (cursor + 15) & ~15
        end = header + total_bytes
        if end > self.base + self.size:
            raise ArenaExhausted(
                f"arena exhausted: need {total_bytes} bytes at {header:#x}, arena ends at "
                f"{self.base + self.size:#x}"
            )
        self._cursor = end
        return header

    def _register(self, header_addr: int, obj_base: int, raw_size: int,
                  total_bytes: int, type_id: int, scope_id: int | None) -> AllocationRecord:
        frame = wrapper_frame(header_addr, header_addr + total_bytes - 1 + self.pad_bytes)
        if frame.n <= SLOT_BITS:
            classification = SMALL
            tagged = encode_small(header_addr, obj_base)
        else:
            classification = BIG
            division, slot = self.table.entry_index(obj_base, frame.n)
            self.table.set_entry(division, slot, header_addr)
            tagged = encode_big(frame.n, obj_base)
        record = AllocationRecord(
            id=self._next_id,
            header_addr=header_addr,
            obj_base=obj_base,
            raw_size=raw_size,
            frame=frame,
            classification=classification,
            tagged=tagged,
            type_id=type_id,
            scope_id=scope_id,
        )
        self._next_id += 1
        self._by_header[header_addr] = record
        self._records.append(record)
        self._live_count += 1
        self._live_payload += raw_size
        self._total_payload += raw_size
        return record

    # -- lifecycle ----------------------------------------------------

    def alloc(self, size: int, type_id: int = 0, scope_id: int | None = None) -> AllocationRecord:
        """Allocate size bytes behind a fresh header; returns the record.

        The tagged pointer (record.tagged) addresses the object base,
        which always sits HEADER_SIZE bytes above the header.
        """
        if size < 1:
            raise ValueError("allocation size must be at least 1")
        check_header_fields(size, type_id)
        header_addr = self._place(HEADER_SIZE + size)
        return self._register(header_addr, header_addr + HEADER_SIZE, size,
                              HEADER_SIZE + size, type_id, scope_id)

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
        header_addr = self._place(total)
        return self._register(header_addr, header_addr + HEADER_SIZE, raw_size,
                              total, type_id, scope_id)

    def realloc(self, tagged: int, new_size: int) -> tuple[Verdict, AllocationRecord | None]:
        """Move an allocation to a fresh region of new_size bytes.

        The wrapper frame is recomputed from scratch at the new
        placement and the old big-frame entry (if any) is vacated.  The
        input is judged as free judges it: a stale pointer yields a
        double-free verdict, one whose frame left the arena an
        out-of-frame verdict, and neither reallocates.
        """
        if new_size < 1:
            raise ValueError("allocation size must be at least 1")
        fail, old = self._resolve_live(tagged)
        if fail is not None:
            return fail, None
        new = self.alloc(new_size, type_id=old.type_id, scope_id=old.scope_id)
        # payload would be copied up to min(old, new) here; contents are
        # not modelled, only geometry and metadata
        self._release(old)
        return Verdict(VerdictKind.OK, address=new.obj_base, alloc_id=new.id), new

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
        return Verdict(VerdictKind.OK, address=untag(tagged), alloc_id=record.id)

    def scope_end(self, records: list[AllocationRecord]) -> None:
        """Epilogue for a closing scope: vacate big-frame entries and
        mark the scope's records dead."""
        for record in records:
            if record.live:
                self._release(record)

    # -- resolution helpers -------------------------------------------

    def _resolve_live(self, tagged: int) -> tuple[Verdict | None, AllocationRecord | None]:
        """(failing verdict, None) or (None, live record) for a pointer
        handed to a deallocation path."""
        if is_untagged(tagged):
            return Verdict(VerdictKind.UNTRACKED, address=tagged), None
        addr = untag(tagged)
        try:
            record = self._by_header.get(self.table.header_lookup(tagged))
        except ArenaRangeError:
            # the frame base left the arena entirely; the pointer cannot
            # have stayed inside its wrapper frame
            return Verdict(VerdictKind.OUT_OF_FRAME, address=addr), None
        if record is None or not record.live:
            return Verdict(VerdictKind.DOUBLE_FREE, address=addr,
                           alloc_id=record.id if record else None), None
        return None, record

    def _release(self, record: AllocationRecord) -> None:
        if record.classification == BIG:
            division, slot = self.table.entry_index(record.obj_base, record.frame.n)
            self.table.reset_entry(division, slot)
        record.live = False
        self._live_count -= 1
        self._live_payload -= record.raw_size
        # the header bytes stay in place, as they would in a real heap

    def read_header(self, header_addr: int) -> Header | None:
        """The header stored at header_addr, built from its record."""
        record = self._by_header.get(header_addr)
        return None if record is None else Header(record.raw_size, record.type_id)

    def record_at(self, header_addr: int) -> AllocationRecord | None:
        return self._by_header.get(header_addr)

    @property
    def records(self) -> list[AllocationRecord]:
        return self._records

    @property
    def total_allocations(self) -> int:
        return self._next_id - 1

    @property
    def total_payload_bytes(self) -> int:
        return self._total_payload

    def stats(self) -> ArenaStats:
        return ArenaStats(
            live_allocations=self._live_count,
            live_header_bytes=HEADER_SIZE * self._live_count,
            live_payload_bytes=self._live_payload,
            table_reserved_bytes=self.table.reserved_bytes,
            table_touched_bytes=self.table.touched_bytes,
            overhead_bytes=HEADER_SIZE * self._live_count + self.table.reserved_bytes,
            total_allocations=self.total_allocations,
            total_payload_bytes=self._total_payload,
            cursor_used_bytes=self._cursor - self.base,
        )
