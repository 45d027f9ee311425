"""Packing and unpacking of 64-bit tagged pointer values.

Layout, most significant bits first: 1 flag bit, 15 tag bits, 48
address bits.  flag == 1 marks a small-framed object; the tag then
holds the byte offset from the address's slot base to the object
header.  flag == 0 with tag in [16, 48] marks a big-framed object; the
tag then holds N, the log2 of the wrapper frame size.  A raw value
below 2**48 has flag 0 and tag 0 and is an ordinary untracked address;
consumers must accept those and pass them through unchecked.

Arena._register mints each tag, once, at allocation; this module states
the layout and holds decode and rebase.
"""

from __future__ import annotations

from .frame_math import ADDRESS_MASK, SLOT_BITS

FLAG_BIT = 1 << 63
TAG_SHIFT = 48
TAG_MASK = 0x7FFF
MIN_BIG_TAG = SLOT_BITS + 1    # frames up to a slot are slot-addressed instead
MAX_BIG_TAG = 48    # no wrapper frame exceeds the 48-bit space
_TAG_BITS = ~ADDRESS_MASK    # the flag and tag bits, built once, not per rebase


class TagError(ValueError):
    """Arguments violate the tagged-pointer layout."""


def decode(p: int) -> tuple[int, int, int]:
    """Split a raw pointer value into (flag, tag, address)."""
    return p >> 63, (p >> TAG_SHIFT) & TAG_MASK, p & ADDRESS_MASK


def rebase(p: int, new_addr: int) -> int:
    """Move the address field of p, keeping flag and tag intact.

    In-slot or in-frame movement never requires a tag update; that is
    the point of the encoding.
    """
    if new_addr >> TAG_SHIFT:    # negative, or past the 48-bit space
        raise TagError(f"address {new_addr:#x} outside the 48-bit space")
    return (p & _TAG_BITS) | new_addr
