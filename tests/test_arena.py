import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameguard.arena import Arena, ArenaExhausted, DEFAULT_ARENA_BASE
from frameguard.frame_math import ADDRESS_MASK, SLOT_SIZE, slot_base
from frameguard.metadata import ArenaRangeError, DivisionTable, EntryConflictError, HEADER_SIZE
from frameguard.tagging import (
    FLAG_BIT, MAX_BIG_TAG, MIN_BIG_TAG, TAG_MASK, TAG_SHIFT, TagError, decode, rebase,
)
from frameguard.verdicts import VerdictKind
from oracles import header_lookup_oracle, lookup_oracle, wrapper_frame_oracle

BASE = DEFAULT_ARENA_BASE


def small_arena(**kw):
    return Arena(base=BASE, size=1 << 24, **kw)


def test_alloc_geometry():
    a = small_arena()
    r = a.alloc(40, type_id=3)
    assert r.header_addr == BASE
    assert r.obj_base == r.header_addr + HEADER_SIZE
    assert r.raw_size == 40
    assert (r.raw_size, r.type_id) == (40, 3)
    assert a.lookup(r.tagged) == (None, r)
    # frame wraps header through padded upper bound
    lo, hi = r.header_addr, r.obj_base + 40 - 1 + 1
    assert r.frame.n == wrapper_frame_oracle(lo, hi)
    assert r.is_small
    flag, tag, addr = decode(r.tagged)
    assert flag == 1 and addr == r.obj_base
    assert (r.header_addr - (r.header_addr & ~(SLOT_SIZE - 1))) == tag


def test_alloc_big_sets_entry():
    a = small_arena()
    r = a.alloc(1 << 17)
    assert not r.is_small
    assert r.frame.n >= 17
    assert a.table.get_entry(r.obj_base, r.frame.n) == r.header_addr
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
        assert r.is_small == (n <= 15)


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
    assert r.is_small and not r2.is_small
    assert a.table.get_entry(r2.obj_base, r2.frame.n) == r2.header_addr


def test_realloc_big_resets_old_entry():
    a = small_arena()
    r = a.alloc(1 << 17)
    v, r2 = a.realloc(r.tagged, 1 << 17)
    assert v.kind is VerdictKind.OK
    assert a.table.get_entry(r.obj_base, r.frame.n) == 0
    assert a.table.get_entry(r2.obj_base, r2.frame.n) == r2.header_addr


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


def test_realloc_refuses_a_bad_size_before_judging_the_pointer():
    a = small_arena()
    freed = a.alloc(1 << 17)
    a.free(freed.tagged)
    for size in (0, 1 << 32):
        with pytest.raises(ValueError):
            a.realloc(freed.tagged, size)
    live = a.alloc(1 << 17)
    before = a.stats()
    with pytest.raises(ValueError):
        a.realloc(live.tagged, 1 << 32)
    assert live.live and a.stats() == before
    assert a.table.get_entry(live.obj_base, live.frame.n) == live.header_addr


def test_free_verdicts():
    a = small_arena()
    big = a.alloc(1 << 17)
    assert a.free(big.tagged).kind is VerdictKind.OK
    assert a.table.get_entry(big.obj_base, big.frame.n) == 0
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
    a.scope_end([big, small])
    assert a.table.get_entry(big.obj_base, big.frame.n) == 0
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
    assert a.stats()["live_allocations"] == 20_000


def test_wide_padding_can_conflict():
    # With padding wider than a header, two disjoint allocations can end
    # up wrapped by the same frame; detection must stay on and refuse.
    a = Arena(base=BASE, size=1 << 24, pad_bytes=17)
    a.alloc((1 << 16) - 32)
    before = a.stats()
    with pytest.raises(EntryConflictError):
        a.alloc(100)
    assert a.stats() == before
    # the same stream is conflict-free with unit padding
    b = Arena(base=BASE, size=1 << 24, pad_bytes=1)
    b.alloc((1 << 16) - 32)
    b.alloc(100)


def test_accounting():
    a = small_arena()
    for size in (40, 1 << 17, 24):
        a.alloc(size)

    def live_payload():
        return sum(r.raw_size for r in a.records if r.live)

    st = a.stats()
    assert st["live_allocations"] == 3
    assert st["live_header_bytes"] == 48
    assert live_payload() == 40 + (1 << 17) + 24
    assert st["table_reserved_bytes"] == a.table.reserved_bytes

    a.free(a.records[0].tagged)
    st = a.stats()
    assert st["live_allocations"] == 2
    assert st["live_header_bytes"] == 32
    assert live_payload() == (1 << 17) + 24
    assert st["total_allocations"] == 3

    # every release path feeds the totals derived from the records
    _, moved = a.realloc(a.records[2].tagged, 100)
    st = a.stats()
    assert (st["live_allocations"], st["live_header_bytes"]) == (2, 32)
    assert live_payload() == (1 << 17) + 100
    a.scope_end([a.records[1], moved])
    st = a.stats()
    assert (st["live_allocations"], st["live_header_bytes"], live_payload()) == (0, 0, 0)
    assert st["total_allocations"] == 4


def test_arena_exhaustion():
    a = Arena(base=BASE, size=1 << 16)
    with pytest.raises(ArenaExhausted):
        a.alloc(1 << 17)


def test_jitter_without_rng_is_rejected():
    with pytest.raises(ValueError):
        Arena(placement_jitter=50)
    with pytest.raises(ValueError):
        Arena(placement_jitter=-1, rng=random.Random(0))


def test_largest_arena_is_built_lazily():
    # the whole 48-bit space above the default base: an eagerly built
    # table would need about 1.4 TiB
    size = (1 << 48) - DEFAULT_ARENA_BASE
    tracemalloc.start()
    try:
        a = Arena(size=size)
        built_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built_peak < 64 * 1024
    r = a.alloc(1 << 17)
    assert a.free(r.tagged).kind is VerdictKind.OK
    assert a.free(r.tagged).kind is VerdictKind.DOUBLE_FREE

    t = DivisionTable(DEFAULT_ARENA_BASE, size)
    last = (DEFAULT_ARENA_BASE + ((t.division_count - 1) << 16), 16)   # the last division
    t.set_entry(*last, 0xABC0)
    assert t.get_entry(*last) == 0xABC0
    assert t.reset_entry(*last) == 0xABC0
    assert t.get_entry(*last) == 0
    assert t.touched_bytes == 384


def test_rejects_bad_sizes():
    a = small_arena()
    with pytest.raises(ValueError):
        a.alloc(0)
    with pytest.raises(ValueError):
        a.alloc_array(0, 8)
    with pytest.raises(ValueError):
        a.alloc_array(4, 0)
    r = a.alloc(8)
    with pytest.raises(ValueError):
        a.realloc(r.tagged, 0)
    with pytest.raises(ValueError):
        small_arena(pad_bytes=-1)


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


# -- resolvers against the reference built from decode -------------------

def _outcome(fn, *args):
    """fn's result, or the type of the resolver error it raised."""
    try:
        return fn(*args)
    except (TagError, ArenaRangeError) as exc:
        return type(exc)


def _resolve(arena, tagged):
    """(header_lookup outcome, lookup outcome), asserted equal to the
    reference's."""
    table = arena.table
    header = _outcome(table.header_lookup, tagged)
    assert header == _outcome(header_lookup_oracle, table, tagged)
    found = _outcome(arena.lookup, tagged)
    assert found == _outcome(lookup_oracle, arena, tagged)
    return header, found


def test_resolvers_agree_with_reference_on_each_pointer_class():
    a = small_arena()
    small, big, freed = a.alloc(40), a.alloc(1 << 17), a.alloc(1 << 17)
    a.free(freed.tagged)
    next_slot = slot_base(small.obj_base) + SLOT_SIZE
    addr = big.obj_base
    cases = [
        (small.tagged, small.header_addr, (None, small)),
        (rebase(small.tagged, next_slot), next_slot + small.header_addr % SLOT_SIZE,
         (VerdictKind.OUT_OF_FRAME, None)),               # left its slot
        (big.tagged, big.header_addr, (None, big)),
        (freed.tagged, 0, (None, None)),                  # vacated entry
        (rebase(big.tagged, BASE - 1), ArenaRangeError,   # frame below the arena
         (VerdictKind.OUT_OF_FRAME, None)),
        (rebase(big.tagged, BASE + a.size), ArenaRangeError,  # frame beyond it
         (VerdictKind.OUT_OF_FRAME, None)),
        (addr, TagError, (VerdictKind.UNTRACKED, None)),  # plain addresses
        (ADDRESS_MASK, TagError, (VerdictKind.UNTRACKED, None)),
        ((MIN_BIG_TAG - 1) << TAG_SHIFT | addr, TagError, TagError),
        ((MAX_BIG_TAG + 1) << TAG_SHIFT | addr, TagError, TagError),
        (TAG_MASK << TAG_SHIFT | addr, TagError, TagError),
    ]
    for tagged, header, found in cases:
        assert _resolve(a, tagged) == (header, found), hex(tagged)


@st.composite
def _arena_and_pointer(draw):
    """Live and freed small- and big-framed objects, and a pointer: one
    object's tagged pointer moved anywhere, a small or big tag over any
    address, or a plain address."""
    a = small_arena()
    objects = st.tuples(st.integers(1, 1 << 18), st.booleans())
    for size, freed in draw(st.lists(objects, min_size=1, max_size=8)):
        r = a.alloc(size)
        if freed:
            a.free(r.tagged)
    r = draw(st.sampled_from(a.records))
    addr = draw(st.one_of(
        st.integers(max(0, r.obj_base - (1 << 17)), r.obj_base + r.raw_size + (1 << 17)),
        st.integers(BASE - (1 << 20), BASE + a.size + (1 << 20)),
        st.integers(0, ADDRESS_MASK),
        st.integers(ADDRESS_MASK >> 1, ADDRESS_MASK),   # the top address bit set
    ))
    form = draw(st.sampled_from(("object", "small", "big", "untagged")))
    if form == "object":
        return a, rebase(r.tagged, addr)
    if form == "untagged":
        return a, addr
    tag = draw(st.one_of(st.integers(MIN_BIG_TAG - 2, MAX_BIG_TAG + 2),
                         st.integers(0, TAG_MASK)))
    return a, (FLAG_BIT if form == "small" else 0) | tag << TAG_SHIFT | addr


@settings(deadline=None, max_examples=300)
@given(_arena_and_pointer())
def test_resolvers_agree_with_reference(arena_and_pointer):
    _resolve(*arena_and_pointer)
