import random

import pytest

from frameguard.arena import Arena, ArenaExhausted, DEFAULT_ARENA_BASE
from frameguard.frame_math import SLOT_SIZE, wrapper_frame_oracle
from frameguard.metadata import EntryConflictError, HEADER_SIZE
from frameguard.tagging import decode
from frameguard.verdicts import VerdictKind

BASE = DEFAULT_ARENA_BASE


def small_arena(**kw):
    return Arena(base=BASE, size=1 << 24, **kw)


def test_alloc_geometry():
    a = small_arena()
    r = a.alloc(40, type_id=3)
    assert r.header_addr == BASE
    assert r.obj_base == r.header_addr + HEADER_SIZE
    assert r.raw_size == 40
    hdr = a.read_header(r.header_addr)
    assert (hdr.size, hdr.type_id) == (40, 3)
    # frame wraps header through padded upper bound
    lo, hi = r.header_addr, r.obj_base + 40 - 1 + 1
    assert r.frame.n == wrapper_frame_oracle(lo, hi)
    assert r.classification == "small"
    flag, tag, addr = decode(r.tagged)
    assert flag == 1 and addr == r.obj_base
    assert (r.header_addr - (r.header_addr & ~(SLOT_SIZE - 1))) == tag


def test_alloc_big_sets_entry():
    a = small_arena()
    r = a.alloc(1 << 17)
    assert r.classification == "big"
    assert r.frame.n >= 17
    division, slot = a.table.entry_index(r.obj_base, r.frame.n)
    assert a.table.get_entry(division, slot) == r.header_addr
    flag, tag, _ = decode(r.tagged)
    assert flag == 0 and tag == r.frame.n


def test_headers_are_16_aligned_and_regions_disjoint():
    rng = random.Random(1)
    a = small_arena(placement_jitter=5, rng=rng)
    prev_end = 0
    for _ in range(500):
        r = a.alloc(rng.randrange(1, 300))
        assert r.header_addr % 16 == 0
        assert r.header_addr >= prev_end
        prev_end = r.obj_base + r.raw_size


def test_classification_matches_oracle_randomized():
    rng = random.Random(0xA110C)
    a = Arena(base=BASE, size=1 << 28, placement_jitter=7, rng=rng)
    for _ in range(3_000):
        size = rng.choice((1, 2, 15, 16, 40, 100, 1000, 30_000, 40_000, 1 << 16, 1 << 17))
        r = a.alloc(size)
        n = wrapper_frame_oracle(r.header_addr, r.obj_base + size - 1 + 1)
        assert r.frame.n == n
        assert (r.classification == "small") == (n <= 15)


def test_size_one_16_aligned_placements_inside_slot_are_small():
    # exhaustive scan of one slot: an 18-byte region (header + byte + pad)
    # is small-framed at every 16-aligned placement that stays in the slot
    for k in range(SLOT_SIZE // 16):
        lo = BASE + 16 * k
        hi = lo + HEADER_SIZE + 1 - 1 + 1
        if hi < BASE + SLOT_SIZE:
            assert wrapper_frame_oracle(lo, hi) <= 15
        else:
            # straddling the slot boundary goes big-framed by design
            assert wrapper_frame_oracle(lo, hi) >= 16


def test_alloc_array_extra_elements():
    a = small_arena()
    r = a.alloc_array(10, 8)
    assert r.obj_base == r.header_addr + 16
    assert r.raw_size == 80

    # elem size 32: one extra element; the 16 spare bytes land after the
    # object's last element and stay outside the checked size
    r2 = a.alloc_array(3, 32)
    assert r2.obj_base == r2.header_addr + 16
    assert r2.raw_size == 96
    r3 = a.alloc(1)
    assert r3.header_addr >= r2.header_addr + (3 + 1) * 32

    # ceil(16/1) = 16 extra one-byte elements
    r4 = a.alloc_array(1, 1)
    assert r4.raw_size == 1
    r5 = a.alloc(1)
    assert r5.header_addr >= r4.header_addr + 17


def test_realloc_small_to_big():
    a = small_arena()
    r = a.alloc(40)
    v, r2 = a.realloc(r.tagged, 1 << 17)
    assert v.kind is VerdictKind.OK
    assert not r.live and r2.live
    assert r.classification == "small" and r2.classification == "big"
    division, slot = a.table.entry_index(r2.obj_base, r2.frame.n)
    assert a.table.get_entry(division, slot) == r2.header_addr


def test_realloc_big_resets_old_entry():
    a = small_arena()
    r = a.alloc(1 << 17)
    old_idx = a.table.entry_index(r.obj_base, r.frame.n)
    v, r2 = a.realloc(r.tagged, 1 << 17)
    assert v.kind is VerdictKind.OK
    assert a.table.get_entry(*old_idx) == 0
    new_idx = a.table.entry_index(r2.obj_base, r2.frame.n)
    assert a.table.get_entry(*new_idx) == r2.header_addr


def test_realloc_of_freed_handle_is_violation():
    a = small_arena()
    r = a.alloc(1 << 17)
    assert a.free(r.tagged).kind is VerdictKind.OK
    v, r2 = a.realloc(r.tagged, 64)
    assert v.kind is VerdictKind.DOUBLE_FREE and r2 is None

    s = a.alloc(24)
    assert a.free(s.tagged).kind is VerdictKind.OK
    v, _ = a.realloc(s.tagged, 64)
    assert v.kind is VerdictKind.DOUBLE_FREE


def test_free_verdicts():
    a = small_arena()
    big = a.alloc(1 << 17)
    assert a.free(big.tagged).kind is VerdictKind.OK
    division, slot = a.table.entry_index(big.obj_base, big.frame.n)
    assert a.table.get_entry(division, slot) == 0
    assert a.free(big.tagged).kind is VerdictKind.DOUBLE_FREE

    # small-framed double free is caught from record liveness, an
    # extension beyond what the table alone can observe
    small = a.alloc(24)
    assert a.free(small.tagged).kind is VerdictKind.OK
    assert a.free(small.tagged).kind is VerdictKind.DOUBLE_FREE

    assert a.free(0x1234).kind is VerdictKind.UNTRACKED


def test_scope_end_resets_big_entries():
    a = small_arena()
    big = a.alloc(1 << 17, scope_id=0)
    small = a.alloc(40, scope_id=0)
    division, slot = a.table.entry_index(big.obj_base, big.frame.n)
    a.scope_end([big, small])
    assert a.table.get_entry(division, slot) == 0
    assert not big.live and not small.live
    # already-freed records are left alone
    a.scope_end([big, small])


def test_scope_end_with_only_small_records_leaves_table_alone():
    a = small_arena()
    locals_ = [a.alloc(24, scope_id=0) for _ in range(5)]
    before = a.table.touched_bytes
    a.scope_end(locals_)
    assert a.table.touched_bytes == before == 0
    assert all(not r.live for r in locals_)


def test_lookup_totality_over_live_objects():
    # every address within an allocation's real bytes resolves to its
    # header, for both classifications
    from frameguard.tagging import rebase

    rng = random.Random(0x70AD)
    a = Arena(base=BASE, size=1 << 26, placement_jitter=3, rng=rng)
    for _ in range(200):
        r = a.alloc(rng.choice((1, 17, 300, 40_000, (1 << 17) + 5)))
        step = max(1, r.raw_size // 16)
        for addr in range(r.obj_base, r.obj_base + r.raw_size, step):
            assert a.table.header_lookup(rebase(r.tagged, addr)) == r.header_addr


def test_no_entry_conflicts_with_unit_padding():
    # disjoint allocation stream, randomized sizes and gaps: the fake
    # one-byte padding never makes two live objects share an entry
    rng = random.Random(0xC0FFEE)
    a = Arena(base=BASE, size=1 << 30, pad_bytes=1, placement_jitter=6, rng=rng)
    for _ in range(20_000):
        size = rng.choice((1, 3, 17, 100, 1000, 9_000, 33_000, 70_000, 1 << 17))
        a.alloc(size)  # EntryConflictError would fail the test
    assert a.stats().live_allocations == 20_000


def test_wide_padding_can_conflict():
    # With padding wider than a header, two disjoint allocations can end
    # up wrapped by the same frame; detection must stay on and refuse.
    a = Arena(base=BASE, size=1 << 24, pad_bytes=17)
    a.alloc((1 << 16) - 32)
    with pytest.raises(EntryConflictError):
        a.alloc(100)
    # the same stream is conflict-free with unit padding
    b = Arena(base=BASE, size=1 << 24, pad_bytes=1)
    b.alloc((1 << 16) - 32)
    b.alloc(100)


def test_accounting():
    a = small_arena()
    for size in (40, 1 << 17, 24):
        a.alloc(size)
    st = a.stats()
    assert st.live_allocations == 3
    assert st.live_header_bytes == 48
    assert st.live_payload_bytes == 40 + (1 << 17) + 24
    assert st.overhead_bytes == 16 * 3 + st.table_reserved_bytes
    assert st.table_reserved_bytes == a.table.reserved_bytes

    a.free(a.records[0].tagged)
    st = a.stats()
    assert st.live_allocations == 2
    assert st.overhead_bytes == 16 * 2 + st.table_reserved_bytes
    assert st.total_allocations == 3


def test_arena_exhaustion():
    a = Arena(base=BASE, size=1 << 16)
    with pytest.raises(ArenaExhausted):
        a.alloc(1 << 17)


def test_rejects_bad_sizes():
    a = small_arena()
    with pytest.raises(ValueError):
        a.alloc(0)
    with pytest.raises(ValueError):
        a.alloc_array(0, 8)
    with pytest.raises(ValueError):
        a.alloc_array(4, 0)


@pytest.mark.parametrize("size, call", [
    (1 << 24, lambda a: a.alloc(8, type_id=1 << 32)),
    (1 << 24, lambda a: a.alloc(8, type_id=-1)),
    (1 << 24, lambda a: a.alloc_array(4, 8, type_id=1 << 32)),
    # arenas large enough that placement alone would succeed
    (1 << 33, lambda a: a.alloc(1 << 32)),
    (1 << 33, lambda a: a.alloc_array(1 << 31, 2)),
], ids=["type_id_too_big", "type_id_negative", "array_type_id_too_big",
        "size_too_big", "array_size_too_big"])
def test_rejected_alloc_leaves_arena_unchanged(size, call):
    a = Arena(base=BASE, size=size)
    a.alloc(40)
    before = a.stats()
    with pytest.raises(ValueError):
        call(a)
    assert a.stats() == before
    assert a.alloc(40).id == 2
