import random

import pytest

from frameguard.frame_math import SLOT_SIZE, slot_base
from frameguard.tagging import (
    TagError,
    decode,
    encode_big,
    encode_small,
    rebase,
)
from oracles import is_untagged

SLOT = 0x0000_1000_0000_8000


def test_encode_small_examples():
    raw = encode_small(SLOT + 0x10, SLOT + 0x20)
    flag, tag, addr = decode(raw)
    assert (flag, tag, addr) == (1, 0x0010, SLOT + 0x20)

    # header exactly at the slot base carries a zero offset
    assert decode(encode_small(SLOT, SLOT + 16))[1] == 0

    # degenerate: the header is the target
    flag, tag, addr = decode(encode_small(SLOT, SLOT))
    assert (flag, tag, addr) == (1, 0, SLOT)


def test_encode_small_rejects_cross_slot():
    with pytest.raises(TagError):
        encode_small(SLOT + 0x10, SLOT + SLOT_SIZE)
    with pytest.raises(TagError):    # outside the 48-bit space
        encode_small(1 << 48, 1 << 48)


def test_encode_big_examples():
    assert encode_big(20, 0x0000_1000_0012_3456) == 0x0014_1000_0012_3456
    assert encode_big(16, 0) == 0x0010_0000_0000_0000
    flag, tag, addr = decode(encode_big(48, (1 << 48) - 1))
    assert (flag, tag, addr) == (0, 0x30, (1 << 48) - 1)


def test_encode_big_rejects_out_of_range():
    with pytest.raises(TagError):
        encode_big(15, 0)
    with pytest.raises(TagError):
        encode_big(49, 0)
    with pytest.raises(TagError):
        encode_big(20, 1 << 48)


def test_decode_zero():
    assert decode(0) == (0, 0, 0)


def test_round_trips():
    rng = random.Random(11)
    for _ in range(2_000):
        slot = (rng.randrange(1 << 33)) << 15
        header = slot + 16 * rng.randrange(SLOT_SIZE // 16)
        target = rng.randrange(slot, slot + SLOT_SIZE)
        flag, tag, addr = decode(encode_small(header, target))
        assert flag == 1
        assert slot_base(addr) + tag == header
        assert addr == target

        n = rng.randint(16, 48)
        target = rng.randrange(1 << 48)
        assert decode(encode_big(n, target)) == (0, n, target)


def test_tag_stable_under_in_slot_movement():
    rng = random.Random(5)
    for _ in range(1_000):
        slot = (rng.randrange(1 << 20)) << 15
        header = slot + 16 * rng.randrange(SLOT_SIZE // 16)
        t1 = rng.randrange(slot, slot + SLOT_SIZE)
        t2 = rng.randrange(slot, slot + SLOT_SIZE)
        a = encode_small(header, t1)
        b = encode_small(header, t2)
        assert decode(a)[1] == decode(b)[1]
        # moving the address never rewrites the tag
        assert rebase(a, t2) == b


def test_is_untagged():
    assert is_untagged(0x1234)
    assert is_untagged((1 << 48) - 1)
    assert not is_untagged(encode_big(16, 0))
    assert not is_untagged(encode_small(SLOT, SLOT))


def test_rebase_validates_address():
    with pytest.raises(TagError):
        rebase(encode_big(16, 0), 1 << 48)
