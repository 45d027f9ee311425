"""Power-of-two frame arithmetic.

A frame is a memory block of size 2**n that is aligned by its own size
(an "n-frame").  Every byte region [lo, hi] has a unique wrapper frame:
the smallest frame containing the whole region.  Its log-size falls out
of a single XOR and a leading-zero count, which is what lets per-object
metadata be located from a pointer without any search structure.

Addresses are plain ints restricted to a 48-bit space.  Arithmetic is
exact; out-of-range regions are rejected, never silently masked.
"""

from __future__ import annotations

from typing import NamedTuple

ADDRESS_BITS = 48
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1
SLOT_BITS = 15              # slots are 15-frames
SLOT_SIZE = 1 << SLOT_BITS


class RegionError(ValueError):
    """Malformed byte region (lo > hi, or outside the 48-bit space)."""


class WrapperFrame(NamedTuple):
    """Smallest size-aligned power-of-two block containing a region."""

    n: int        # log2 of the frame size, in [0, 48]
    base: int     # frame base address, aligned by 2**n


def wrapper_frame(lo: int, hi: int) -> WrapperFrame:
    """Wrapper frame of the inclusive byte region [lo, hi].

    The XOR of the bounds has its highest set bit at the first position
    where they differ, so the frame log-size is 64 minus the leading
    zero count of the XOR, i.e. its bit length.  A single-byte region
    (XOR of zero) gets a 0-frame.
    """
    if lo < 0 or hi > ADDRESS_MASK:
        raise RegionError(f"region [{lo:#x}, {hi:#x}] outside the 48-bit space")
    if lo > hi:
        raise RegionError(f"region lower bound {lo:#x} above upper bound {hi:#x}")
    n = (lo ^ hi).bit_length()
    # tuple.__new__ skips the named tuple's Python-level __new__
    return tuple.__new__(WrapperFrame, (n, lo & ~((1 << n) - 1)))

