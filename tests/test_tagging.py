import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameguard.arena import Arena
from frameguard.frame_math import SLOT_SIZE
from frameguard.metadata import EntryConflictError
from frameguard.tagging import TagError, decode, rebase
from oracles import is_untagged, slot_base, split_pointer, tag_big, tag_small, wrapper_frame_oracle

SLOT = 0x0000_1000_0000_8000


def test_encode_small_examples():
    # Arena._register mints the tags: headers at SLOT and SLOT + 0x20
    arena = Arena(base=SLOT - 0x8000)
    arena.alloc(0x8000 - 16)    # fills the first slot, header to end
    a, b = arena.alloc(8), arena.alloc(8)
    assert (a.header_addr, b.header_addr) == (SLOT, SLOT + 0x20)
    assert a.tagged == 0x8000_1000_0000_8010 == tag_small(SLOT, SLOT + 16)
    assert b.tagged == 0x8020_1000_0000_8030 == tag_small(SLOT + 0x20, SLOT + 0x30)
    assert decode(b.tagged) == (1, 0x0020, SLOT + 0x30)
    # header exactly at the slot base carries a zero offset
    assert decode(a.tagged)[1] == 0


def test_encode_big_examples():
    arena = Arena(base=0x0000_1000_0000_0000)
    r = arena.alloc(1 << 20)    # header through padding spans a 21-frame
    assert r.tagged == 0x0015_1000_0000_0010 == tag_big(21, r.obj_base)
    assert tag_big(20, 0x0000_1000_0012_3456) == 0x0014_1000_0012_3456
    assert tag_big(16, 0) == 0x0010_0000_0000_0000
    flag, tag, addr = decode(tag_big(48, (1 << 48) - 1))
    assert (flag, tag, addr) == (0, 0x30, (1 << 48) - 1)


def test_decode_zero():
    assert decode(0) == (0, 0, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 64) - 1))
def test_decode_agrees_with_the_reference_split(p):
    assert decode(p) == split_pointer(p)


def test_round_trips():
    rng = random.Random(11)
    for _ in range(2_000):
        slot = (rng.randrange(1 << 33)) << 15
        header = slot + 16 * rng.randrange(SLOT_SIZE // 16)
        target = rng.randrange(slot, slot + SLOT_SIZE)
        flag, tag, addr = decode(tag_small(header, target))
        assert flag == 1
        assert slot_base(addr) + tag == header
        assert addr == target

        n = rng.randint(16, 48)
        target = rng.randrange(1 << 48)
        assert decode(tag_big(n, target)) == (0, n, target)


def test_tag_stable_under_in_slot_movement():
    rng = random.Random(5)
    for _ in range(1_000):
        slot = (rng.randrange(1 << 20)) << 15
        header = slot + 16 * rng.randrange(SLOT_SIZE // 16)
        t1 = rng.randrange(slot, slot + SLOT_SIZE)
        t2 = rng.randrange(slot, slot + SLOT_SIZE)
        a = tag_small(header, t1)
        b = tag_small(header, t2)
        assert decode(a)[1] == decode(b)[1]
        # moving the address never rewrites the tag
        assert rebase(a, t2) == b


def test_is_untagged():
    assert is_untagged(0x1234)
    assert is_untagged((1 << 48) - 1)
    assert not is_untagged(tag_big(16, 0))
    assert not is_untagged(tag_small(SLOT, SLOT))


def test_rebase_validates_address():
    with pytest.raises(TagError):
        rebase(tag_big(16, 0), 1 << 48)


# (count, elem_size) for an array; count None for a plain alloc of elem_size bytes
_ALLOCS = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(1, 64)),
              st.one_of(st.integers(1, 64), st.integers(1, 1 << 18))),
    min_size=1, max_size=20)


@settings(max_examples=100, deadline=None)
@given(allocs=_ALLOCS, pad=st.integers(0, 64), jitter=st.integers(0, 40),
       seed=st.integers(0, 1 << 16), base=st.integers(1, (1 << 32) - (1 << 14)))
def test_minted_tags_match_the_reference(allocs, pad, jitter, seed, base):
    # 20 allocations of at most 64 * 2**18 bytes never exhaust 2**30
    arena = Arena(base=base << 16, size=1 << 30, pad_bytes=pad, placement_jitter=jitter,
                  rng=random.Random(seed))
    for count, elem in allocs:
        try:
            if count is None:
                r, total = arena.alloc(elem), 16 + elem
            else:
                r, total = arena.alloc_array(count, elem), (count - (-16 // elem)) * elem
        except EntryConflictError:    # padding wider than a header may share an entry
            break
        header, obj = r.header_addr, r.obj_base
        n = wrapper_frame_oracle(header, header + total - 1 + pad)
        assert r.n == n
        if n <= 15:
            assert r.tagged == tag_small(header, obj)
            assert decode(r.tagged) == (1, header - slot_base(header), obj)
        else:
            assert r.tagged == tag_big(n, obj)
            assert decode(r.tagged) == (0, n, obj)
        assert arena.table.header_lookup(r.tagged) == header
