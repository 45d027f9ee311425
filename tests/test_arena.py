import gc
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frameguard.arena import AllocationRecord, Arena, ArenaExhausted, DEFAULT_ARENA_BASE
from frameguard.checker import AccessRequest, Checker
from frameguard.frame_math import ADDRESS_MASK, SLOT_BITS, SLOT_SIZE, wrapper_frame
from frameguard.metadata import ArenaRangeError, DivisionTable, EntryConflictError, HEADER_SIZE
from frameguard.tagging import (
    FLAG_BIT, MAX_BIG_TAG, MIN_BIG_TAG, TAG_MASK, TAG_SHIFT, TagError, rebase,
)
from frameguard.verdicts import VerdictKind
from oracles import (
    frame_base, header_lookup_oracle, in_frame, lookup_oracle, slot_base, split_pointer,
    wrapper_frame_oracle,
)

BASE = DEFAULT_ARENA_BASE


def small_arena(**kw):
    return Arena(base=BASE, size=1 << 24, **kw)


def _live(a: Arena, r: AllocationRecord) -> bool:
    # the arena keeps no record: a live one resolves to an equal record,
    # a released one, of either class, to None
    return a.lookup(r.tagged) == r


def test_alloc_geometry():
    a = small_arena()
    r = a.alloc(40, type_id=3)
    assert r.header_addr == BASE
    assert r.obj_base == r.header_addr + HEADER_SIZE
    assert r.raw_size == 40
    assert (r.raw_size, r.type_id) == (40, 3)
    assert a.lookup(r.tagged) == r
    # frame wraps header through padded upper bound
    lo, hi = r.header_addr, r.obj_base + 40 - 1 + 1
    assert r.n == wrapper_frame_oracle(lo, hi)
    assert r.n <= SLOT_BITS
    flag, tag, addr = split_pointer(r.tagged)
    assert flag == 1 and addr == r.obj_base
    assert (r.header_addr - (r.header_addr & ~(SLOT_SIZE - 1))) == tag


def test_alloc_big_sets_entry():
    a = small_arena()
    r = a.alloc(1 << 17)
    assert r.n > SLOT_BITS
    assert r.n >= 17
    assert a.table.get_entry(r.obj_base, r.n) == r.header_addr
    flag, tag, _ = split_pointer(r.tagged)
    assert flag == 0 and tag == r.n


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
        assert r.n == n
        assert split_pointer(r.tagged)[0] == (n <= 15)


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
    assert not _live(a, r) and _live(a, r2)
    assert r.n <= SLOT_BITS < r2.n
    assert a.table.get_entry(r2.obj_base, r2.n) == r2.header_addr


def test_realloc_big_resets_old_entry():
    a = small_arena()
    r = a.alloc(1 << 17)
    v, r2 = a.realloc(r.tagged, 1 << 17)
    assert v.kind is VerdictKind.OK
    assert a.table.get_entry(r.obj_base, r.n) == 0
    assert a.table.get_entry(r2.obj_base, r2.n) == r2.header_addr


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
    assert _live(a, live) and a.stats() == before
    assert a.table.get_entry(live.obj_base, live.n) == live.header_addr


def test_free_verdicts():
    a = small_arena()
    big = a.alloc(1 << 17)
    assert a.free(big.tagged).kind is VerdictKind.OK
    assert a.table.get_entry(big.obj_base, big.n) == 0
    assert a.free(big.tagged).kind is VerdictKind.DOUBLE_FREE

    # small-framed double free is caught at the cleared header, which
    # the table, holding no small-framed entry, cannot observe
    small = a.alloc(24)
    assert a.free(small.tagged).kind is VerdictKind.OK
    assert a.free(small.tagged).kind is VerdictKind.DOUBLE_FREE

    assert a.free(0x1234).kind is VerdictKind.UNTRACKED


@pytest.mark.parametrize("size", [64, 128 << 10], ids=["small", "big"])
def test_free_through_an_interior_pointer_releases_the_object(size):
    # a deliberate miss (CWE-761, README's Coverage): free and realloc
    # resolve the header from any pointer in the frame, so a pointer 8
    # bytes into the object releases it as its base would
    a = small_arena()
    r = a.alloc(size)
    verdict = a.free(r.tagged + 8)
    assert verdict.kind is VerdictKind.OK and verdict.alloc_id == r.id
    assert verdict.address == r.obj_base + 8
    assert a.lookup(r.tagged) is None and a.stats()["live_allocations"] == 0
    assert a.free(r.tagged).kind is VerdictKind.DOUBLE_FREE

    s = a.alloc(size)
    verdict, moved = a.realloc(s.tagged + 8, 2 * size)
    assert verdict.kind is VerdictKind.OK and moved is not None
    assert a.lookup(s.tagged) is None and a.lookup(moved.tagged) == moved
    assert a.records == [moved]


def test_scope_end_resets_big_entries():
    a = small_arena()
    a.scope_begin()
    big = a.alloc(1 << 17)
    small = a.alloc(40)
    a.scope_end()
    assert a.table.get_entry(big.obj_base, big.n) == 0
    assert not _live(a, big) and not _live(a, small)
    # already-freed records are left alone
    a.scope_begin()
    for record in (a.alloc(1 << 17), a.alloc(40)):
        a.free(record.tagged)
    a.scope_end()


def test_scope_end_with_only_small_records_leaves_table_alone():
    a = small_arena()
    a.scope_begin()
    locals_ = [a.alloc(24) for _ in range(5)]
    before = a.table.touched_bytes
    a.scope_end()
    assert a.table.touched_bytes == before == 0
    assert all(not _live(a, r) for r in locals_)


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
    a.scope_begin()
    made = [a.alloc(size) for size in (40, 1 << 17, 24)]

    def live_payload():
        return sum(r.raw_size for r in a.records)

    st = a.stats()
    assert st["live_allocations"] == 3
    assert st["live_header_bytes"] == 48
    assert live_payload() == 40 + (1 << 17) + 24
    assert st["table_reserved_bytes"] == a.table.reserved_bytes

    a.free(made[0].tagged)
    st = a.stats()
    assert st["live_allocations"] == 2
    assert st["live_header_bytes"] == 32
    assert live_payload() == (1 << 17) + 24
    assert st["total_allocations"] == 3

    # every release path feeds the totals derived from the records
    _, moved = a.realloc(made[2].tagged, 100)
    st = a.stats()
    assert (st["live_allocations"], st["live_header_bytes"]) == (2, 32)
    assert live_payload() == (1 << 17) + 100
    # the moved allocation stays in its old allocation's scope, the only
    # one open, which holds exactly the live allocations' ids
    assert a._scope[moved.id] is a._scope[made[1].id] is a._scopes[-1]
    assert a._scopes[-1] == dict.fromkeys(r.id for r in a.records)
    a.scope_end()
    st = a.stats()
    assert (st["live_allocations"], st["live_header_bytes"], live_payload()) == (0, 0, 0)
    assert st["total_allocations"] == 4


def _alloc_free(a: Arena, size: int) -> None:
    a.free(a.alloc(size).tagged)


def _alloc(a: Arena, size: int) -> None:
    a.alloc(size)


def _in_a_short_scope(a: Arena, size: int) -> None:
    a.scope_begin()
    a.alloc(size)
    a.scope_end()


def _bytes_kept_per_allocation(size: int, pairs: int = 20_000, cycle=_alloc_free,
                               open_scope: bool = False) -> float:
    """tracemalloc growth per allocation of size bytes that cycle(arena,
    size) makes, and releases unless it is _alloc, the arena kept and
    the records it returns dropped; with open_scope, every cycle runs
    inside one scope that stays open."""
    a = Arena(base=1 << 32, size=1 << 40)
    if open_scope:
        a.scope_begin()
    cycle(a, size)      # one-time growth stays out of the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(pairs):
            cycle(a, size)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / pairs


def test_a_live_allocation_keeps_its_row_and_its_header_address():
    # about 128 B for a 64 B object: 33 B of column row, the header
    # address and the id as ints and their _by_header entry; a 64 KiB
    # object's table entry adds about 61 B.  One record object per live
    # allocation kept 269 B and 327 B
    assert _bytes_kept_per_allocation(64, cycle=_alloc) < 140
    assert _bytes_kept_per_allocation(1 << 16, cycle=_alloc) < 200


def test_a_dead_big_framed_allocation_keeps_only_its_table_entry():
    # about 96 B: the division-table entry the paper leaves vacated and
    # the allocation's 33 B column row; a stored record with its frame
    # kept 423 B
    assert _bytes_kept_per_allocation(1 << 17) <= 120
    # a dead small-framed object keeps its cleared header: a stored
    # record kept about 269 B, and 365 B with a frame tuple
    assert _bytes_kept_per_allocation(64) <= 365


def test_a_dead_allocation_of_either_class_keeps_at_most_120_bytes():
    # release keeps no record of either class: about 96 B each, a
    # vacated entry or a cleared header by address, and the column row
    for size in (64, 1 << 17):
        assert _bytes_kept_per_allocation(size) <= 120, size


def test_an_open_scope_keeps_no_more_per_dead_allocation_than_no_scope():
    # a scope that stays open, like a program's main, holds only its
    # live records: a list of every record made in it kept 274 B per
    # dead 128 KiB allocation against 61.5 B outside every scope.  The
    # scope's own dict may keep a few hundred bytes once, not per record
    pairs = 20_000
    unscoped = _bytes_kept_per_allocation(1 << 17, pairs)
    scoped = _bytes_kept_per_allocation(1 << 17, pairs, open_scope=True)
    assert scoped <= unscoped + 1024 / pairs


def test_a_short_scope_keeps_no_more_per_allocation_than_a_free():
    # were a released record to keep its ended scope's dict, each
    # 64-byte allocation would keep a few hundred bytes, not about 96
    unscoped = _bytes_kept_per_allocation(64, 10_000)
    assert _bytes_kept_per_allocation(64, 10_000, _in_a_short_scope) <= unscoped


def test_the_store_keeps_only_live_records():
    a = small_arena()
    small, big, freed_small, freed_big = a.alloc(40), a.alloc(1 << 17), a.alloc(8), a.alloc(1 << 17)
    a.free(freed_small.tagged)
    a.free(freed_big.tagged)
    assert a.records == [small, big]
    assert not _live(a, freed_small) and not _live(a, freed_big)
    # n is the region's frame: header to one past the end
    n = freed_big.n
    assert (n, frame_base(freed_big.header_addr, n)) == wrapper_frame(
        freed_big.header_addr, freed_big.obj_base + freed_big.raw_size)
    # a released object of either class resolves to no record, so no id
    for freed in (freed_big, freed_small):
        assert a.lookup(freed.tagged) is None
        assert a.free(freed.tagged) == (VerdictKind.DOUBLE_FREE, freed.obj_base, None, None)
    assert a.alloc(1).id == 5


_ops = st.one_of(
    st.tuples(st.just("alloc"), st.sampled_from([1, 40, 3000, 1 << 16, 1 << 17])
              | st.integers(1, 1 << 18)),
    st.tuples(st.just("alloc_array"), st.integers(1, 300), st.sampled_from([1, 3, 8, 24, 512])),
    st.tuples(st.just("free"), st.integers(0, 1 << 10)),
    st.tuples(st.just("realloc"), st.integers(0, 1 << 10), st.integers(1, 1 << 18)),
    st.tuples(st.just("scope_begin")),
    st.tuples(st.just("scope_end")),
)


@settings(deadline=None, max_examples=150)
@given(st.lists(_ops, max_size=30))
def test_stats_match_a_recount_of_every_record(ops):
    # running totals against a recount over every record this test
    # allocated, including those the arena no longer stores
    a = Arena(base=BASE, size=1 << 28)
    records, end, depth = [], a.base, 0

    def kept(record, total_bytes):
        nonlocal end
        records.append(record)
        end = record.header_addr + total_bytes

    for op, *args in ops:
        pick = records[args[0] % len(records)] if records and op in ("free", "realloc") else None
        if op == "alloc":
            kept(a.alloc(args[0]), HEADER_SIZE + args[0])
        elif op == "alloc_array":
            count, elem = args
            kept(a.alloc_array(count, elem), (count + math.ceil(HEADER_SIZE / elem)) * elem)
        elif op == "free" and pick:
            a.free(pick.tagged)
        elif op == "realloc" and pick:
            _, moved = a.realloc(pick.tagged, args[1])
            if moved is not None:
                kept(moved, HEADER_SIZE + args[1])
        elif op == "scope_begin":
            a.scope_begin()
            depth += 1
        elif op == "scope_end" and depth:
            a.scope_end()
            depth -= 1
        live = sum(_live(a, r) for r in records)
        assert a.stats() == dict(
            live_allocations=live, live_header_bytes=HEADER_SIZE * live,
            table_reserved_bytes=a.table.reserved_bytes,
            table_touched_bytes=a.table.touched_bytes,
            total_allocations=len(records), total_payload_bytes=sum(r.raw_size for r in records),
            cursor_used_bytes=end - a.base)
        assert [r.id for r in records] == list(range(1, len(records) + 1))
        assert a.records == [r for r in records if _live(a, r)]


@settings(deadline=None, max_examples=150)
@given(st.lists(_ops, max_size=30))
def test_each_record_keeps_its_table_key(ops):
    # the key a record keeps is the one its frame names, so release
    # vacates the right entry with no frame math
    a = Arena(base=BASE, size=1 << 28)
    records, depth = [], 0
    for op, *args in ops:
        pick = records[args[0] % len(records)] if records and op in ("free", "realloc") else None
        if op == "alloc":
            records.append(a.alloc(args[0]))
        elif op == "alloc_array":
            records.append(a.alloc_array(*args))
        elif op == "free" and pick:
            a.free(pick.tagged)
        elif op == "realloc" and pick:
            _, moved = a.realloc(pick.tagged, args[1])
            if moved is not None:
                records.append(moved)
        elif op == "scope_begin":
            a.scope_begin()
            depth += 1
        elif op == "scope_end" and depth:
            a.scope_end()
            depth -= 1
        for r in records:
            assert r.header_addr == r.obj_base - HEADER_SIZE
            if r.n <= SLOT_BITS:
                assert r.key == 0
            elif _live(a, r):
                assert r.key == a.table.entry_index(r.obj_base, r.n)
                assert a.table.get_entry(r.obj_base, r.n) == r.header_addr
            else:
                assert a.table.get_entry(r.obj_base, r.n) == 0


@settings(deadline=None, max_examples=500)
@given(st.lists(_ops, max_size=40))
# an outer record moved inside a nested scope, and a nested scope ending
@example([("alloc", 1), ("scope_begin",), ("realloc", 0, 1), ("scope_end",)])
@example([("scope_begin",), ("alloc", 1), ("scope_begin",), ("scope_end",)])
def test_liveness_matches_a_model_of_nested_scopes(ops):
    # the model: a stack of id sets, one per open scope; scope_end kills
    # the innermost set's ids, and a realloc moves its id's membership
    a = Arena(base=BASE, size=1 << 28)
    records, live, scopes = [], {}, []
    for op, *args in ops:
        pick = records[args[0] % len(records)] if records and op in ("free", "realloc") else None
        if op in ("alloc", "alloc_array"):
            new = a.alloc(args[0]) if op == "alloc" else a.alloc_array(*args)
            records.append(new)
            live[new.id] = True
            if scopes:
                scopes[-1].add(new.id)
        elif op == "free" and pick:
            a.free(pick.tagged)
            live[pick.id] = False
        elif op == "realloc" and pick:
            _, moved = a.realloc(pick.tagged, args[1])
            assert (moved is not None) == live[pick.id]
            if moved is not None:
                records.append(moved)
                live[pick.id], live[moved.id] = False, True
                for ids in scopes:
                    if pick.id in ids:
                        ids.remove(pick.id)
                        ids.add(moved.id)
        elif op == "scope_begin":
            a.scope_begin()
            scopes.append(set())
        elif op == "scope_end" and scopes:
            a.scope_end()
            for i in scopes.pop():
                live[i] = False
        assert [_live(a, r) for r in records] == [live[r.id] for r in records]


@settings(deadline=None, max_examples=200)
@given(st.lists(_ops, max_size=30), st.lists(st.integers(-(1 << 20), 1 << 20), max_size=4))
# a small and a big object, one freed and one moved, and a released scope
@example([("alloc", 40), ("alloc", 1 << 17), ("free", 0), ("realloc", 1, 64),
          ("scope_begin",), ("alloc", 8), ("scope_end",)], [])
def test_a_released_pointer_of_either_class_stays_stale_in_its_frame(ops, offsets):
    # every pointer of a released object that stays in its frame (the
    # slot, for a small-framed object) is use_after_free for an access
    # and for either copy operand, and double_free with no alloc_id for
    # a second free or realloc
    a = Arena(base=BASE, size=1 << 28)
    ck = Checker(a)
    records, depth = [], 0
    for op, *args in ops:
        pick = records[args[0] % len(records)] if records and op in ("free", "realloc") else None
        if op in ("alloc", "alloc_array"):
            records.append(a.alloc(args[0]) if op == "alloc" else a.alloc_array(*args))
        elif op == "free" and pick:
            a.free(pick.tagged)
        elif op == "realloc" and pick:
            _, moved = a.realloc(pick.tagged, args[1])
            if moved is not None:
                records.append(moved)
        elif op == "scope_begin":
            a.scope_begin()
            depth += 1
        elif op == "scope_end" and depth:
            a.scope_end()
            depth -= 1
    plain = 0x1000      # an untracked operand passes, so the other is judged
    for r in records:
        if _live(a, r):
            continue
        for addr in (r.obj_base, r.header_addr, r.obj_base + r.raw_size,
                     *(r.obj_base + off for off in offsets)):
            if not in_frame(addr, r.obj_base, max(r.n, SLOT_BITS)):
                continue    # it left its frame, so it is judged elsewhere
            p = rebase(r.tagged, addr)
            stale = (VerdictKind.USE_AFTER_FREE, addr, None)
            assert ck.check_access(AccessRequest(p, 4)) == stale + (None,)
            for copy in (ck.check_memcpy, ck.check_strncpy):
                assert copy(p, plain, 4) == stale + ("dst",)
                assert copy(plain, p, 4) == stale + ("src",)
            assert ck.check_strcpy(p, plain, 3) == stale + ("dst",)
            again = (VerdictKind.DOUBLE_FREE, addr, None, None)
            assert a.free(p) == again
            assert a.realloc(p, 8) == (again, None)


def test_a_record_is_a_value_of_seven_fields():
    # header_addr is derived, so the table key costs no field; the arena
    # keeps no record and builds an equal one from its columns when asked
    assert AllocationRecord._fields == ("id", "key", "obj_base", "raw_size", "n", "tagged",
                                        "type_id")
    a = small_arena()
    r = a.alloc(1 << 17, type_id=7)
    assert not hasattr(r, "__dict__")
    assert a.lookup(r.tagged) == r and a.lookup(r.tagged) is not r
    assert a.records == [r] and r.type_id == 7


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
    key = t.set_entry(*last, 0xABC0)
    assert key == t.entry_index(*last)
    assert t.get_entry(*last) == 0xABC0
    assert t.reset_entry(key) == 0xABC0
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


# -- resolvers against the reference built from split_pointer ------------

def _outcome(fn, *args):
    """fn's result, or the type of the resolver error it raised."""
    try:
        return fn(*args)
    except (TagError, ArenaRangeError) as exc:
        return type(exc)


def _resolve(arena, records, tagged):
    """(header_lookup outcome, lookup outcome), asserted equal to the
    reference's; records are every record allocated in arena."""
    table = arena.table
    header = _outcome(table.header_lookup, tagged)
    assert header == _outcome(header_lookup_oracle, table, tagged)
    found = _outcome(arena.lookup, tagged)
    assert found == _outcome(lookup_oracle, arena, records, tagged)
    return header, found


def test_resolvers_agree_with_reference_on_each_pointer_class():
    a = small_arena()
    small, big, freed = a.alloc(40), a.alloc(1 << 17), a.alloc(1 << 17)
    a.free(freed.tagged)
    next_slot = slot_base(small.obj_base) + SLOT_SIZE
    addr = big.obj_base
    cases = [
        (small.tagged, small.header_addr, small),
        (rebase(small.tagged, next_slot), next_slot + small.header_addr % SLOT_SIZE,
         VerdictKind.OUT_OF_FRAME),                       # left its slot
        (big.tagged, big.header_addr, big),
        (freed.tagged, 0, None),                          # vacated entry
        (rebase(big.tagged, BASE - 1), ArenaRangeError,   # frame below the arena
         VerdictKind.OUT_OF_FRAME),
        (rebase(big.tagged, BASE + a.size), ArenaRangeError,  # frame beyond it
         VerdictKind.OUT_OF_FRAME),
        (addr, TagError, VerdictKind.UNTRACKED),          # plain addresses
        (ADDRESS_MASK, TagError, VerdictKind.UNTRACKED),
        ((MIN_BIG_TAG - 1) << TAG_SHIFT | addr, TagError, TagError),
        ((MAX_BIG_TAG + 1) << TAG_SHIFT | addr, TagError, TagError),
        (TAG_MASK << TAG_SHIFT | addr, TagError, TagError),
    ]
    for tagged, header, found in cases:
        assert _resolve(a, [small, big, freed], tagged) == (header, found), hex(tagged)


@st.composite
def _arena_and_pointer(draw):
    """Live and freed small- and big-framed objects, every record
    allocated, and a pointer: one object's tagged pointer moved anywhere,
    a small or big tag over any address, or a plain address."""
    a = small_arena()
    objects = st.tuples(st.integers(1, 1 << 18), st.booleans())
    records = []
    for size, freed in draw(st.lists(objects, min_size=1, max_size=8)):
        records.append(a.alloc(size))
        if freed:
            a.free(records[-1].tagged)
    # drawn from what was allocated: the arena no longer stores a freed
    # big-framed record
    r = draw(st.sampled_from(records))
    addr = draw(st.one_of(
        st.integers(max(0, r.obj_base - (1 << 17)), r.obj_base + r.raw_size + (1 << 17)),
        st.integers(BASE - (1 << 20), BASE + a.size + (1 << 20)),
        st.integers(0, ADDRESS_MASK),
        st.integers(ADDRESS_MASK >> 1, ADDRESS_MASK),   # the top address bit set
    ))
    form = draw(st.sampled_from(("object", "small", "big", "untagged")))
    if form == "object":
        return a, records, rebase(r.tagged, addr)
    if form == "untagged":
        return a, records, addr
    tag = draw(st.one_of(st.integers(MIN_BIG_TAG - 2, MAX_BIG_TAG + 2),
                         st.integers(0, TAG_MASK)))
    return a, records, (FLAG_BIT if form == "small" else 0) | tag << TAG_SHIFT | addr


@settings(deadline=None, max_examples=300)
@given(_arena_and_pointer())
def test_resolvers_agree_with_reference(arena_and_pointer):
    _resolve(*arena_and_pointer)
