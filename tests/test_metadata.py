import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameguard.frame_math import ADDRESS_MASK, wrapper_frame
from frameguard.metadata import (
    ENTRIES_PER_DIVISION,
    ArenaRangeError,
    DivisionTable,
    EntryConflictError,
    check_header_fields,
)
from frameguard.tagging import FLAG_BIT, TAG_SHIFT, TagError
from oracles import entry_key_oracle, header_lookup_oracle, tag_big, tag_small

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
    assert all(t.get_entry(BASE + (d << 16), n) == 0 for d in (0, 17, 255) for n in range(16, 49))

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
    # the key is division * ENTRIES_PER_DIVISION + slot, slot = n - 16
    assert t.entry_index(0x0000_1000_0012_3456, 20) == 16 * ENTRIES_PER_DIVISION + 4
    assert t.entry_index(BASE, 16) == 0
    # frame base of the 17-frame at BASE + 2**17 (BASE is 2**17-aligned)
    assert t.entry_index(BASE + (1 << 17), 17) == 2 * ENTRIES_PER_DIVISION + 1
    # one byte below that boundary still belongs to the frame based at BASE
    assert t.entry_index(BASE + (1 << 17) - 1, 17) == 1


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


def test_a_frame_below_the_base_keys_into_the_first_division():
    t = DivisionTable(0x30000, 1 << 20)
    # the 19-frame [0, 0x80000) begins below the base and holds its first bytes
    assert t.entry_index(0x3FFF0, 19) == t.entry_index(0x7FFFF, 19) == 19 - 16
    # the next 19-frame begins in division 5; the 16-frame at 0x40000 in division 1
    assert t.entry_index(0x80000, 19) == 5 * ENTRIES_PER_DIVISION + 3
    assert t.entry_index(0x4FFFF, 16) == 1 * ENTRIES_PER_DIVISION
    with pytest.raises(ArenaRangeError):
        t.entry_index(0x2FFFF, 16)    # [0x20000, 0x30000) holds no arena byte
    with pytest.raises(ArenaRangeError):
        DivisionTable(0x30000, 0).entry_index(0x3FFF0, 19)   # an empty arena has no byte


def test_set_reset_entry_lifecycle():
    t = DivisionTable(BASE, 1 << 24)
    frame = (BASE + (16 << 16), 20)   # division 16, slot 4
    key = t.set_entry(*frame, 0xFFF0)
    assert key == t.entry_index(*frame) == 16 * ENTRIES_PER_DIVISION + 4
    assert t.get_entry(*frame) == 0xFFF0

    with pytest.raises(EntryConflictError) as e:
        t.set_entry(*frame, 0xAAA0)
    assert str(e.value) == "entry (16, 4) already holds header 0xfff0; refused 0xaaa0"

    assert t.reset_entry(key) == 0xFFF0
    assert t.get_entry(*frame) == 0
    assert t.reset_entry(key) == 0  # idempotent, zero signals the double free

    assert t.set_entry(*frame, 0xBBB0) == key  # set after reset succeeds again
    assert t.get_entry(*frame) == 0xBBB0


def test_touched_bytes_tracks_divisions_in_use():
    t = DivisionTable(BASE, 1 << 24)
    assert t.touched_bytes == 0
    key = t.set_entry(BASE + (32 << 16), 16, 0x10)   # two entries of division 32
    assert key == t.entry_index(BASE + (32 << 16), 16)
    t.set_entry(BASE + (32 << 16), 21, 0x20)
    t.set_entry(BASE + (9 << 16), 16, 0x30)
    assert t.touched_bytes == 2 * ENTRIES_PER_DIVISION * 8
    t.reset_entry(key)
    assert t.touched_bytes == 2 * ENTRIES_PER_DIVISION * 8  # once used, paged in


def test_header_lookup_small():
    t = DivisionTable(BASE, 1 << 24)
    slot = BASE + 0x8000
    raw = tag_small(slot + 0x10, slot + 0x20)
    assert t.header_lookup(raw) == slot + 0x10


def test_header_lookup_big_and_vacancy():
    t = DivisionTable(BASE, 1 << 24)
    p = BASE + (1 << 20) + 0x2345
    key = t.set_entry(p, 20, 0xDEAD0)
    assert key == t.entry_index(p, 20)
    assert t.header_lookup(tag_big(20, p)) == 0xDEAD0
    t.reset_entry(key)
    assert t.header_lookup(tag_big(20, p)) == 0  # vacancy: released object


def test_header_lookup_rejects_untagged():
    t = DivisionTable(BASE, 1 << 24)
    with pytest.raises(TagError):
        t.header_lookup(0x1234)


def test_entry_uniqueness_for_disjoint_regions():
    # disjoint regions that are big-framed never share an entry while
    # both are live
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
            t.set_entry(lo, f.n, lo)  # EntryConflictError would fail the test
        cursor = hi + 1


def _outcome(fn, *args):
    """fn's result, or the type of the error it raised."""
    try:
        return fn(*args)
    except (TagError, ArenaRangeError) as exc:
        return type(exc)


@st.composite
def _table_and_frames(draw):
    """A table at any 2**16-aligned base, some entries set through frames,
    and (address, log) probes: frames that straddle the base, lie wholly
    below it, begin past the end or anywhere at all, with logs in and out
    of [16, 48]."""
    size = draw(st.integers(0, 64)) << 16
    base = draw(st.integers(1, (ADDRESS_MASK + 1 - size) >> 16)) << 16
    t = DivisionTable(base, size)
    logs = st.integers(0, 63) | st.integers(16, 48)
    addrs = st.one_of(
        st.integers(max(0, base - (1 << 20)), base + (1 << 16)),        # around the base
        st.integers(0, base),                                             # below it
        st.integers(min(base + size, ADDRESS_MASK), min(base + size + (1 << 20), ADDRESS_MASK)),
        st.integers(0, ADDRESS_MASK),
    )
    frames = st.lists(st.tuples(addrs, logs), min_size=1, max_size=12)
    set_frames = draw(frames)
    for i, (addr, n) in enumerate(set_frames):
        try:
            t.set_entry(addr, n, 16 * (i + 1))
        except (TagError, ArenaRangeError, EntryConflictError):
            pass
    return t, set_frames + draw(frames)   # probe the set entries too


@settings(deadline=None, max_examples=150)
@given(_table_and_frames())
def test_entry_index_and_header_lookup_agree_with_the_reference(case):
    t, probes = case
    for addr, n in probes:
        assert _outcome(t.entry_index, addr, n) == _outcome(entry_key_oracle, t, addr, n)
        for tagged in (n << TAG_SHIFT | addr, FLAG_BIT | n << TAG_SHIFT | addr):
            assert _outcome(t.header_lookup, tagged) == _outcome(header_lookup_oracle, t, tagged)
