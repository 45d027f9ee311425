import random

import pytest

from frameguard.frame_math import wrapper_frame
from frameguard.metadata import (
    ENTRIES_PER_DIVISION,
    ArenaRangeError,
    DivisionTable,
    EntryConflictError,
    check_header_fields,
)
from frameguard.tagging import TagError, encode_big, encode_small

BASE = 0x0000_1000_0000_0000


def test_header_fields():
    check_header_fields(40, 7)
    check_header_fields((1 << 32) - 1, (1 << 32) - 1)
    with pytest.raises(ValueError):
        check_header_fields(1 << 32, 0)
    with pytest.raises(ValueError):
        check_header_fields(1, -1)


def test_table_init():
    t = DivisionTable(BASE, 1 << 24)
    assert t.division_count == 256
    assert t.reserved_bytes == 256 * 48 * 8
    assert all(t.get_entry(d, s) == 0 for d in (0, 17, 255) for s in range(48))

    assert DivisionTable(BASE, 1 << 16).division_count == 1

    empty = DivisionTable(BASE, 0)
    with pytest.raises(ArenaRangeError):
        empty.entry_index(BASE, 16)


def test_table_init_rejects_misalignment():
    with pytest.raises(ValueError):
        DivisionTable(BASE + 8, 1 << 20)
    with pytest.raises(ValueError):
        DivisionTable(BASE, (1 << 20) + 4)
    with pytest.raises(ValueError):
        DivisionTable(0, 1 << 20)
    with pytest.raises(ValueError):
        DivisionTable(BASE, 1 << 48)    # past the 48-bit space


def test_entry_index_examples():
    t = DivisionTable(BASE, 1 << 24)
    assert t.entry_index(0x0000_1000_0012_3456, 20) == (16, 4)
    assert t.entry_index(BASE, 16) == (0, 0)
    # frame base of the 17-frame at BASE + 2**17 (BASE is 2**17-aligned)
    assert t.entry_index(BASE + (1 << 17), 17) == (2, 1)
    # one byte below that boundary still belongs to the frame based at BASE
    assert t.entry_index(BASE + (1 << 17) - 1, 17) == (0, 1)


def test_entry_index_range_errors():
    t = DivisionTable(BASE, 1 << 20)
    with pytest.raises(ArenaRangeError):
        t.entry_index(BASE - 1, 16)          # frame base below the arena
    with pytest.raises(ArenaRangeError):
        t.entry_index(BASE + (1 << 21), 16)  # division beyond the arena
    with pytest.raises(ValueError):
        t.entry_index(BASE, 15)
    with pytest.raises(ValueError):
        t.entry_index(BASE, 49)


def test_set_reset_entry_lifecycle():
    t = DivisionTable(BASE, 1 << 24)
    t.set_entry(16, 4, 0xFFF0)
    assert t.get_entry(16, 4) == 0xFFF0

    with pytest.raises(EntryConflictError):
        t.set_entry(16, 4, 0xAAA0)

    assert t.reset_entry(16, 4) == 0xFFF0
    assert t.get_entry(16, 4) == 0
    assert t.reset_entry(16, 4) == 0  # idempotent, zero signals the double free

    t.set_entry(16, 4, 0xBBB0)  # set after reset succeeds again
    assert t.get_entry(16, 4) == 0xBBB0


def test_touched_bytes_tracks_divisions_in_use():
    t = DivisionTable(BASE, 1 << 24)
    assert t.touched_bytes == 0
    t.set_entry(3, 0, 0x10)
    t.set_entry(3, 5, 0x20)
    t.set_entry(9, 1, 0x30)
    assert t.touched_bytes == 2 * ENTRIES_PER_DIVISION * 8
    t.reset_entry(3, 0)
    assert t.touched_bytes == 2 * ENTRIES_PER_DIVISION * 8  # once used, paged in


def test_header_lookup_small():
    t = DivisionTable(BASE, 1 << 24)
    slot = BASE + 0x8000
    raw = encode_small(slot + 0x10, slot + 0x20)
    assert t.header_lookup(raw) == slot + 0x10


def test_header_lookup_big_and_vacancy():
    t = DivisionTable(BASE, 1 << 24)
    p = BASE + (1 << 20) + 0x2345
    division, slot = t.entry_index(p, 20)
    t.set_entry(division, slot, 0xDEAD0)
    assert t.header_lookup(encode_big(20, p)) == 0xDEAD0
    t.reset_entry(division, slot)
    assert t.header_lookup(encode_big(20, p)) == 0  # vacancy: released object


def test_header_lookup_rejects_untagged():
    t = DivisionTable(BASE, 1 << 24)
    with pytest.raises(TagError):
        t.header_lookup(0x1234)


def test_entry_uniqueness_for_disjoint_regions():
    # disjoint regions that are big-framed never share a
    # (division, slot) pair while both are live
    rng = random.Random(0xD15C)
    t = DivisionTable(BASE, 1 << 30)
    cursor = BASE
    for _ in range(4_000):
        cursor += rng.randrange(1, 1 << 14)
        size = rng.randrange(1, 1 << 18)
        lo, hi = cursor, cursor + size - 1
        if hi >= BASE + (1 << 30) - (1 << 18):
            break
        f = wrapper_frame(lo, hi)
        if f.n >= 16:
            division, slot = t.entry_index(lo, f.n)
            t.set_entry(division, slot, lo)  # EntryConflictError would fail the test
        cursor = hi + 1
