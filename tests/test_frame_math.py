import random

import pytest

from frameguard.frame_math import (
    ADDRESS_MASK,
    SLOT_BITS,
    SLOT_SIZE,
    RegionError,
    WrapperFrame,
    wrapper_frame,
)
from oracles import in_frame, slot_base, wrapper_frame_oracle


def test_wrapper_frame_examples():
    # expected values recomputed by the scan oracle below, then frozen
    assert wrapper_frame_oracle(0x1000, 0x100F) == 4
    f = wrapper_frame(0x1000, 0x100F)
    assert (f.n, f.base) == (4, 0x1000)

    # the 2**12 boundary at 0x1000 splits this region
    assert wrapper_frame_oracle(0x0FF8, 0x1007) == 13
    f = wrapper_frame(0x0FF8, 0x1007)
    assert (f.n, f.base) == (13, 0x0000)

    # single byte region: XOR is zero, degenerate leading-zero count
    f = wrapper_frame(0x1000, 0x1000)
    assert (f.n, f.base) == (0, 0x1000)


def test_oracle_examples():
    assert wrapper_frame_oracle(0x1000, 0x100F) == 4
    assert wrapper_frame_oracle(0, 0) == 0
    # crosses every aligned boundary below 2**48
    assert wrapper_frame_oracle(0, 1 << 47) == 48


def test_region_validation():
    with pytest.raises(RegionError):
        wrapper_frame(0x10, 0x0F)
    with pytest.raises(RegionError):
        wrapper_frame(0, 1 << 48)
    with pytest.raises(RegionError):
        wrapper_frame(-1, 4)
    with pytest.raises(RegionError):
        wrapper_frame_oracle(5, 4)


def test_oracle_equivalence_random():
    rng = random.Random(0xF5A3)
    for _ in range(20_000):
        lo = rng.randrange(1 << 48)
        hi = rng.randrange(lo, 1 << 48)
        assert wrapper_frame(lo, hi).n == wrapper_frame_oracle(lo, hi)


def test_subframe_property():
    # base in the lower (n-1)-subframe, upper bound in the upper one
    rng = random.Random(0xBEEF)
    for _ in range(5_000):
        lo = rng.randrange(1 << 48)
        hi = rng.randrange(lo, min(lo + (1 << 30), 1 << 48))
        f = wrapper_frame(lo, hi)
        if f.n == 0:
            assert lo == hi
            continue
        half = 1 << (f.n - 1)
        assert f.base <= lo < f.base + half
        assert f.base + half <= hi < f.base + 2 * half


def test_alignment_monotonicity():
    rng = random.Random(7)
    for _ in range(2_000):
        lo = rng.randrange(1 << 48)
        hi = rng.randrange(lo, 1 << 48)
        f = wrapper_frame(lo, hi)
        # aligned by its own size, hence by every smaller power of two
        assert f.base % (1 << f.n) == 0
        for m in range(0, f.n, 7):
            assert f.base % (1 << m) == 0


def test_slot_base():
    # oracle: floor(addr / 2**15) * 2**15
    assert slot_base(0x0000_1000_0000_8FF3) == 0x0000_1000_0000_8000
    assert slot_base(0x0) == 0x0
    assert slot_base(0x7FFF) == 0x0
    rng = random.Random(21)
    for _ in range(1_000):
        addr = rng.randrange(1 << 48)
        assert slot_base(addr) == (addr // (1 << 15)) * (1 << 15)
        # the slot the reference names is the 15-frame the library computes
        base = slot_base(addr)
        assert wrapper_frame(base, base + SLOT_SIZE - 1) == WrapperFrame(SLOT_BITS, base)



# in_frame is the reference the arithmetic check is held to in
# test_checker; these pin the reference itself.
def test_in_frame_examples():
    assert in_frame(0x8010, 0x8FF0, 15)
    assert not in_frame(0x8010, 0x1_0010, 15)
    assert in_frame(0x12345, 0x12345, 0)
    with pytest.raises(ValueError):
        in_frame(0, 0, 64)


def test_in_frame_symmetry_and_monotonicity():
    rng = random.Random(99)
    for _ in range(2_000):
        p = rng.randrange(1 << 48)
        q = rng.randrange(1 << 48)
        n = rng.randrange(0, 49)
        assert in_frame(p, q, n) == in_frame(q, p, n)
        if in_frame(p, q, n):
            for m in range(n, 49, 5):
                assert in_frame(p, q, m)


def test_frame_parameter_never_exceeds_48():
    f = wrapper_frame(0, ADDRESS_MASK)
    assert f.n == 48 and f.base == 0
