import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameguard.arena import Arena, ArenaExhausted, DEFAULT_ARENA_BASE
from frameguard.checker import AccessRequest, Checker
from frameguard.frame_math import ADDRESS_MASK, SLOT_BITS, SLOT_SIZE
from frameguard.harness import parse_trace, run_trace
from frameguard.metadata import ArenaRangeError
from frameguard.tagging import (
    FLAG_BIT, MAX_BIG_TAG, MIN_BIG_TAG, TAG_MASK, TAG_SHIFT, TagError, rebase)
from frameguard.verdicts import Verdict, VerdictKind
from oracles import (
    check_access_oracle, copy_oracle, frame_base, free_oracle, in_frame, is_untagged, split_pointer)

BASE = DEFAULT_ARENA_BASE


def setup():
    arena = Arena(base=BASE, size=1 << 26)
    return arena, Checker(arena)


def access(checker, record, offset, size):
    tagged = rebase(record.tagged, record.obj_base + offset)
    return checker.check_access(AccessRequest(tagged, size))


def test_access_examples():
    arena, ck = setup()
    r = arena.alloc(40)
    assert access(ck, r, 36, 4).kind is VerdictKind.OK      # 36 + 3 == 39
    assert access(ck, r, 38, 4).kind is VerdictKind.OVERFLOW  # 38 + 3 == 41 > 39
    assert access(ck, r, -1, 1).kind is VerdictKind.UNDERFLOW  # header byte


def test_unsafe_cast_pattern():
    # 10-byte object, 4-byte store at offset 8: classic post-cast corruption
    arena, ck = setup()
    r = arena.alloc(10)
    v = access(ck, r, 8, 4)
    assert v.kind is VerdictKind.OVERFLOW
    assert v.alloc_id == r.id


def test_ok_returns_untagged_address():
    arena, ck = setup()
    r = arena.alloc(64)
    tagged = rebase(r.tagged, r.obj_base + 8)
    verdict = ck.check_access(AccessRequest(tagged, 4))
    assert verdict.kind is VerdictKind.OK
    assert verdict.address == r.obj_base + 8 == tagged & ADDRESS_MASK


def test_untracked_passthrough():
    _, ck = setup()
    verdict = ck.check_access(AccessRequest(0x4242, 8))
    assert verdict.kind is VerdictKind.UNTRACKED
    assert not verdict.is_violation
    assert verdict.address == 0x4242


def test_big_framed_use_after_free():
    arena, ck = setup()
    r = arena.alloc(1 << 17)
    assert access(ck, r, 0, 1).kind is VerdictKind.OK
    arena.free(r.tagged)
    assert access(ck, r, 0, 1).kind is VerdictKind.USE_AFTER_FREE


def test_small_framed_use_after_free():
    # release clears the header: slot arithmetic still finds it, but it
    # resolves to no record, as a vacated entry does for a big frame
    arena, ck = setup()
    r = arena.alloc(40)
    arena.free(r.tagged)
    assert access(ck, r, 0, 1) == (VerdictKind.USE_AFTER_FREE, r.obj_base, None, None)
    report = run_trace(parse_trace("alloc a 10\nfree a\nload a 0 1\n"))
    assert report.violations == [(2, "use_after_free")]


def test_a_far_small_pointer_finds_no_freed_big_header():
    # s's header starts its slot, and the filler ends the slot, so b's
    # header starts the next one: s's pointer moved there resolves to b's
    # header by slot arithmetic.  Live, b judges the access; freed, b
    # leaves only its vacated entry, so the pointer left its slot.
    arena, ck = setup()
    s = arena.alloc(40)
    arena.alloc(SLOT_SIZE - 64 - 16)
    b = arena.alloc(1 << 17)
    assert s.header_addr % SLOT_SIZE == b.header_addr % SLOT_SIZE == 0
    far = rebase(s.tagged, b.obj_base)
    assert ck.check_access(AccessRequest(far, 4)) == (VerdictKind.OK, b.obj_base, b.id, None)
    below = AccessRequest(rebase(far, b.obj_base - 1), 1)
    assert ck.check_access(below).kind is VerdictKind.UNDERFLOW
    arena.free(b.tagged)
    assert ck.check_access(AccessRequest(far, 4)) == (VerdictKind.OUT_OF_FRAME, b.obj_base,
                                                     None, None)
    assert ck.check_free(far).kind is VerdictKind.OUT_OF_FRAME
    # b's own pointer still meets its vacated entry
    assert access(ck, b, 0, 1).kind is VerdictKind.USE_AFTER_FREE

    trace = (f"alloc s 40\nalloc f {SLOT_SIZE - 80}\nalloc b {1 << 17}\n"
             f"load s {SLOT_SIZE} 4\nfree b\nload s {SLOT_SIZE} 4\n")
    assert run_trace(parse_trace(trace)).violations == [(5, "out_of_frame")]


def test_a_far_small_pointer_on_a_freed_small_header_is_use_after_free():
    # as above, but t is small-framed: its cleared header is where the
    # slot arithmetic lands, so the far access reads as use after free
    trace = (f"alloc s 40\nalloc f {SLOT_SIZE - 80}\nalloc t 40\n"
             f"load s {SLOT_SIZE} 4\nfree t\nload s {SLOT_SIZE} 4\n")
    report = run_trace(parse_trace(trace))
    assert report.verdicts["ok"] == 2 and report.violations == [(5, "use_after_free")]


def test_header_bytes_always_underflow():
    arena, ck = setup()
    for size in (1, 40, 1 << 17):
        r = arena.alloc(size)
        for delta in range(1, 17):
            assert access(ck, r, -delta, 1).kind is VerdictKind.UNDERFLOW


def test_completeness_at_plus_minus_one():
    rng = random.Random(4)
    arena, ck = setup()
    for _ in range(300):
        r = arena.alloc(rng.choice((1, 2, 7, 40, 1000, 1 << 16)))
        assert access(ck, r, r.raw_size, 1).kind is VerdictKind.OVERFLOW
        assert access(ck, r, -1, 1).kind is VerdictKind.UNDERFLOW
        if r.raw_size > 0:
            assert access(ck, r, 0, 1).kind is VerdictKind.OK
            assert access(ck, r, r.raw_size - 1, 1).kind is VerdictKind.OK


def test_soundness_against_record_oracle():
    # independent expectation derived from the allocation record alone;
    # probe window [-16, raw_size] keeps the pointer itself resolvable
    # (header bytes below, fake padding byte above), so the verdict is
    # determined by the bounds rule alone
    rng = random.Random(0x5EED)
    arena, ck = setup()
    records = [arena.alloc(rng.randrange(1, 2_000)) for _ in range(400)]
    for _ in range(20_000):
        r = rng.choice(records)
        offset = rng.randrange(-16, r.raw_size + 1)
        size = rng.randint(1, 8)
        v = access(ck, r, offset, size)
        if offset < 0:
            expected = VerdictKind.UNDERFLOW
        elif offset + size - 1 > r.raw_size - 1:
            expected = VerdictKind.OVERFLOW
        else:
            expected = VerdictKind.OK
        assert v.kind is expected, (r.raw_size, offset, size, v)


def test_intended_referent_kept_across_slot():
    # any in-slot address, even far outside the object, still resolves
    # to the original header
    arena, ck = setup()
    r = arena.alloc(48)
    slot = r.header_addr & ~((1 << 15) - 1)
    for addr in range(slot, slot + (1 << 15), 997):
        assert arena.table.header_lookup(rebase(r.tagged, addr)) == r.header_addr


def test_full_arenas_at_any_aligned_base_check_every_object():
    # arenas at random 2**16-aligned bases, filled with random sizes: big
    # frames that begin below the base keep their entry in the first
    # division, so each object is placed and judged like any other
    rng = random.Random(0xBA5E)
    below_base = 0
    for _ in range(40):
        size = 1 << 20
        base = rng.randrange(1, (ADDRESS_MASK + 1 - size) >> 16) << 16
        arena = Arena(base=base, size=size, pad_bytes=1)
        ck = Checker(arena)
        records = []
        try:
            while True:
                records.append(arena.alloc(int(2 ** rng.uniform(0, 17))))
        except ArenaExhausted:
            pass
        for r in records:
            assert access(ck, r, 0, 1).kind is VerdictKind.OK
            assert access(ck, r, r.raw_size - 1, 1).kind is VerdictKind.OK
            assert access(ck, r, r.raw_size, 1).kind is VerdictKind.OVERFLOW
            assert access(ck, r, -1, 1).kind is VerdictKind.UNDERFLOW
            below_base += r.n > SLOT_BITS and frame_base(r.header_addr, r.n) < base
        for r in records:
            assert arena.free(r.tagged).kind is VerdictKind.OK
        for r in records:
            assert arena.free(r.tagged).kind is VerdictKind.DOUBLE_FREE
            if r.n > SLOT_BITS:
                assert access(ck, r, 0, 1).kind is VerdictKind.USE_AFTER_FREE
    assert below_base > 0


def test_arith_in_frame_examples():
    arena, ck = setup()
    r = arena.alloc(40)
    past_end = rebase(r.tagged, r.obj_base + 40)
    # within the slot: fine at arithmetic even though out of bounds
    assert ck.check_arith(r.tagged, past_end).kind is VerdictKind.OK
    next_slot = rebase(r.tagged, (r.header_addr | ((1 << 15) - 1)) + 1)
    assert ck.check_arith(r.tagged, next_slot).kind is VerdictKind.OUT_OF_FRAME
    assert ck.check_arith(r.tagged, r.tagged).kind is VerdictKind.OK


def test_arith_big_framed_uses_tagged_n():
    arena, ck = setup()
    r = arena.alloc(1 << 17)
    end = frame_base(r.header_addr, r.n) + (1 << r.n)
    inside = rebase(r.tagged, end - 1)
    outside = rebase(r.tagged, end)
    assert ck.check_arith(r.tagged, inside).kind is VerdictKind.OK
    assert ck.check_arith(r.tagged, outside).kind is VerdictKind.OUT_OF_FRAME
    # a flag-clear tag outside [16, 48] is no frame log
    for n in (MIN_BIG_TAG - 1, MAX_BIG_TAG + 1):
        with pytest.raises(TagError):
            ck.check_arith((n << TAG_SHIFT) | r.obj_base, r.obj_base)


def test_arith_untracked_passthrough():
    _, ck = setup()
    assert ck.check_arith(0x1000, 0x2000).kind is VerdictKind.UNTRACKED


_addresses = st.integers(0, ADDRESS_MASK)


@st.composite
def _arith_steps(draw):
    """(old, new): old a plain, small-framed or big-framed pointer; new
    any 64-bit value, or old's address with one bit flipped (often the
    frame's top bit or the one above it) and nudged by up to 2, under
    any top bits, so both in-frame outcomes occur."""
    n = draw(st.sampled_from([0, SLOT_BITS, draw(st.integers(MIN_BIG_TAG, MAX_BIG_TAG))]))
    if n == SLOT_BITS:
        old = FLAG_BIT | draw(st.integers(0, TAG_MASK)) << TAG_SHIFT
    else:
        old = n << TAG_SHIFT
    old |= draw(_addresses)
    if draw(st.booleans()):
        return old, draw(st.integers(0, (1 << 64) - 1))
    bit = draw(st.integers(max(n - 1, 0), min(n, 47)) | st.integers(0, 47))
    flipped = (old ^ 1 << bit) + draw(st.integers(-2, 2))
    return old, draw(st.integers(0, 0xFFFF)) << TAG_SHIFT | flipped & ADDRESS_MASK


@settings(max_examples=400, deadline=None)
@given(_arith_steps())
def test_check_arith_agrees_with_in_frame(step):
    old, new = step
    _, ck = setup()
    new_addr = new & ADDRESS_MASK
    if is_untagged(old):
        expected = VerdictKind.UNTRACKED
    else:
        flag, tag, _ = split_pointer(old)
        n = SLOT_BITS if flag else tag
        in_same = in_frame(old & ADDRESS_MASK, new_addr, n)
        expected = VerdictKind.OK if in_same else VerdictKind.OUT_OF_FRAME
    assert ck.check_arith(old, new) == Verdict(expected, new_addr)


def test_loop_idiom_pointer_into_padding():
    # stepping one past the end is fine at arithmetic and only fails
    # when dereferenced
    arena, ck = setup()
    r = arena.alloc(40)
    p = rebase(r.tagged, r.obj_base + 40)
    assert ck.check_arith(r.tagged, p).kind is VerdictKind.OK
    v = ck.check_access(AccessRequest(p, 1))
    assert v.kind is VerdictKind.OVERFLOW


def test_memcpy():
    arena, ck = setup()
    dst = arena.alloc(64)
    src = arena.alloc(64)
    assert ck.check_memcpy(dst.tagged, src.tagged, 64).kind is VerdictKind.OK
    assert ck.check_memcpy(dst.tagged, src.tagged, 0).kind is VerdictKind.OK

    short = arena.alloc(63)
    v = ck.check_memcpy(short.tagged, src.tagged, 64)
    assert v.kind is VerdictKind.OVERFLOW and v.operand == "dst"

    freed = arena.alloc(1 << 17)
    arena.free(freed.tagged)
    v = ck.check_memcpy(dst.tagged, freed.tagged, 16)
    assert v.kind is VerdictKind.USE_AFTER_FREE and v.operand == "src"

    # destination judged first
    v = ck.check_memcpy(short.tagged, freed.tagged, 64)
    assert v.operand == "dst"

    # both operands untracked: the copy is not checked
    assert ck.check_memcpy(0x1000, 0x2000, 64).kind is VerdictKind.UNTRACKED


def test_memset():
    arena, ck = setup()
    r = arena.alloc(32)
    assert ck.check_memset(r.tagged, 32).kind is VerdictKind.OK
    assert ck.check_memset(r.tagged, 0).kind is VerdictKind.OK
    v = ck.check_memset(r.tagged, 33)
    assert v.kind is VerdictKind.OVERFLOW and v.operand == "dst"


def test_strcpy():
    arena, ck = setup()
    dst = arena.alloc(16)
    src = arena.alloc(4)
    assert ck.check_strcpy(dst.tagged, src.tagged, 10).kind is VerdictKind.OK

    tight = arena.alloc(10)
    v = ck.check_strcpy(tight.tagged, src.tagged, 10)  # terminator does not fit
    assert v.kind is VerdictKind.OVERFLOW and v.operand == "dst"

    # the source array being oversized (or undersized) is irrelevant:
    # only the destination is judged, against the string length
    assert ck.check_strcpy(dst.tagged, src.tagged, 12).kind is VerdictKind.OK


def test_strncpy():
    arena, ck = setup()
    dst = arena.alloc(32)
    src = arena.alloc(32)
    assert ck.check_strncpy(dst.tagged, src.tagged, 32).kind is VerdictKind.OK
    assert ck.check_strncpy(dst.tagged, src.tagged, 0).kind is VerdictKind.OK

    short_src = arena.alloc(31)
    v = ck.check_strncpy(dst.tagged, short_src.tagged, 32)
    assert v.kind is VerdictKind.OVERFLOW and v.operand == "src"

    short_dst = arena.alloc(31)
    v = ck.check_strncpy(short_dst.tagged, src.tagged, 32)
    assert v.kind is VerdictKind.OVERFLOW and v.operand == "dst"


def test_check_free_delegates():
    arena, ck = setup()
    r = arena.alloc(1 << 17)
    assert ck.check_free(r.tagged).kind is VerdictKind.OK
    assert ck.check_free(r.tagged).kind is VerdictKind.DOUBLE_FREE
    assert ck.check_free(0x99).kind is VerdictKind.UNTRACKED


def test_counters():
    arena, ck = setup()
    small = arena.alloc(40)
    big = arena.alloc(1 << 17)
    access(ck, small, 0, 1)
    access(ck, big, 0, 1)
    ck.check_arith(small.tagged, small.tagged)
    ck.check_memcpy(small.tagged, big.tagged, 8)
    assert ck.access_checks == 4          # two direct, two for memcpy operands
    assert ck.arith_checks == 1
    assert ck.lookups_small == 2
    assert ck.lookups_big == 2


def test_negative_byte_counts_rejected():
    arena, ck = setup()
    r = arena.alloc(8)
    with pytest.raises(ValueError):
        ck.check_memcpy(r.tagged, r.tagged, -1)
    with pytest.raises(ValueError):
        ck.check_strcpy(r.tagged, r.tagged, -1)
    with pytest.raises(ValueError):
        ck.check_memset(r.tagged, -1)
    with pytest.raises(ValueError):
        AccessRequest(r.tagged, 0)


def _resolver_case(case):
    """Fresh engine plus the pointer a case hands to every resolver user."""
    arena, ck = setup()
    r = arena.alloc(40 if case.startswith("small") else 1 << 17)
    tagged = r.tagged
    if case.endswith("freed"):
        arena.free(tagged)
    elif case == "big_out_of_arena":
        tagged = rebase(tagged, arena.base + arena.size + (1 << 20))
    elif case == "small_out_of_slot":
        tagged = rebase(tagged, r.obj_base + 100_000)
    return arena, ck, r, tagged


@pytest.mark.parametrize("case, access, free, realloc, lookup", [
    ("small_live", VerdictKind.OK, VerdictKind.OK, VerdictKind.OK, "header"),
    # the slot arithmetic still lands on the cleared header
    ("small_freed", VerdictKind.USE_AFTER_FREE, VerdictKind.DOUBLE_FREE,
     VerdictKind.DOUBLE_FREE, "header"),
    ("big_live", VerdictKind.OK, VerdictKind.OK, VerdictKind.OK, "header"),
    ("big_freed", VerdictKind.USE_AFTER_FREE, VerdictKind.DOUBLE_FREE,
     VerdictKind.DOUBLE_FREE, 0),
    ("big_out_of_arena", VerdictKind.OUT_OF_FRAME, VerdictKind.OUT_OF_FRAME,
     VerdictKind.OUT_OF_FRAME, ArenaRangeError),
    # the slot arithmetic lands where no header was ever written
    ("small_out_of_slot", VerdictKind.OUT_OF_FRAME, VerdictKind.OUT_OF_FRAME,
     VerdictKind.OUT_OF_FRAME, "no_header"),
])
def test_resolver_users_agree(case, access, free, realloc, lookup):
    arena, ck, r, tagged = _resolver_case(case)
    if lookup is ArenaRangeError:
        with pytest.raises(ArenaRangeError):
            arena.table.header_lookup(tagged)
    elif lookup == "no_header":
        headers = {rec.header_addr for rec in arena.records}
        assert arena.table.header_lookup(tagged) not in headers
    else:
        expected = r.header_addr if lookup == "header" else lookup
        assert arena.table.header_lookup(tagged) == expected
    assert ck.check_access(AccessRequest(tagged, 1)).kind is access
    assert ck.check_free(tagged).kind is free

    arena, ck, r, tagged = _resolver_case(case)
    verdict, new = arena.realloc(tagged, 64)
    assert verdict.kind is realloc
    assert (new is not None) == (realloc is VerdictKind.OK)


@st.composite
def _engine_and_pointers(draw):
    """A fresh engine with small- and big-framed objects, some of them
    freed (a big one's entry is then vacant), and (pointer, byte count)
    pairs: near an object, in another slot or frame, outside the arena,
    or untracked."""
    arena, ck = setup()
    sizes = st.sampled_from([1, 40, 3000, 1 << 16, 1 << 17]) | st.integers(1, 1 << 17)
    records = [arena.alloc(size) for size in draw(st.lists(sizes, min_size=1, max_size=5))]
    for r in records:
        if draw(st.booleans()):
            arena.free(r.tagged)
    pointers = []
    for _ in range(draw(st.integers(1, 6))):
        r = draw(st.sampled_from(records))
        where = draw(st.sampled_from(["near", "far", "above", "below", "plain"]))
        if where == "near":
            addr = r.obj_base + draw(st.integers(-32, r.raw_size + 32))
        elif where == "far":
            addr = r.obj_base + draw(st.sampled_from([-1, 1])) * draw(st.integers(1 << 15, 1 << 20))
        elif where == "above":
            addr = arena.base + arena.size + draw(st.integers(0, 1 << 20))
        else:
            addr = arena.base - draw(st.integers(1, 1 << 20))
        p = draw(_addresses) if where == "plain" else rebase(r.tagged, addr)
        pointers.append((p, draw(st.integers(0, 70))))
    return arena, ck, records, pointers


@settings(max_examples=200, deadline=None)
@given(_engine_and_pointers())
def test_whole_verdicts_agree_with_the_reference(case):
    # every field of every verdict, including those built with
    # tuple.__new__, which must still be Verdicts
    arena, ck, records, pointers = case

    def agrees(verdict, expected):
        assert type(verdict) is Verdict and tuple(verdict) == expected
        assert verdict.kind is expected[0]
        assert verdict.is_violation is (verdict.kind not in (VerdictKind.OK, VerdictKind.UNTRACKED))
        relabelled = verdict._replace(operand="x")
        assert type(relabelled) is Verdict and relabelled == expected[:3] + ("x",)

    for p, n in pointers:
        if n:
            agrees(ck.check_access(AccessRequest(p, n)), check_access_oracle(arena, records, p, n))
        agrees(ck.check_memset(p, n), copy_oracle(arena, records, "memset", p, p, n))
        for q, _ in pointers:
            for op in ("memcpy", "strncpy", "strcpy"):
                agrees(getattr(ck, f"check_{op}")(p, q, n),
                       copy_oracle(arena, records, op, p, q, n))
    for p, _ in pointers:
        expected = free_oracle(arena, records, p)   # before the free changes the arena
        agrees(arena.free(p), expected)


def test_verdict_is_an_immutable_named_tuple():
    v = Verdict(VerdictKind.OVERFLOW, 0x10, 3, "dst")
    assert v == (VerdictKind.OVERFLOW, 0x10, 3, "dst")
    assert Verdict(VerdictKind.OK) == (VerdictKind.OK, None, None, None)
    with pytest.raises(AttributeError):
        v.kind = VerdictKind.OK
    for kind in VerdictKind:
        passing = kind in (VerdictKind.OK, VerdictKind.UNTRACKED)
        assert Verdict(kind).is_violation is not passing, kind
